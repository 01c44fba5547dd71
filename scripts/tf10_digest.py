"""Pin the triangle-free enumeration at 10 vertices.

    PYTHONPATH=src python scripts/tf10_digest.py

Hashes the lines "<graph6> <canonical form hex>" over
``enumerate_graphs(10, triangle_free=True)``, the same digest the test
suite pins for n <= 9, and exits non-zero unless the 12,172 classes and
their digest match. It takes a few seconds cold, too long for the suite.
"""

import hashlib

from ramsat.oracle import enumerate_graphs

graphs = enumerate_graphs(10, triangle_free=True)
text = "\n".join(f"{g.to_graph6()} {g.canonical_form().hex()}" for g in graphs)
digest = hashlib.sha256(text.encode()).hexdigest()
assert len(graphs) == 12172, len(graphs)
assert digest == "dd69764b356cac1f93b7630f5a933b3d96b442080d1c2b3ec0f3037248e0ac6e", digest
print(f"{len(graphs)} classes, sha256 {digest}")
