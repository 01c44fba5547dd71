"""Extremal constructions, bad 2-coloring search, and saturation checking
for the pair (triangle, family of all k-vertex trees)."""

from .colorings import (
    BLUE,
    RED,
    BadColoringCertificate,
    TwoColoring,
    export_cnf,
    forced_blue_edges,
    is_bad_coloring,
)
from .constructions import (
    BuiltConstruction,
    ConstructionSpec,
    build,
    hanson_toft_value,
    k3p3_sat_value,
    k3t4_sat_value,
    predicted_edge_count,
    prop1_upper_bound,
    theorem_bounds,
)
from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    from_graph6,
    is_kt_saturated,
)
from .oracle import (
    compute_sat,
    enumerate_graphs,
    family_ramsey_number,
    scan_k3_saturated,
)
from .saturation import (
    SaturationReport,
    StructureClass,
    check_certificate_structure,
    classify_k3_saturated,
    is_ramsey_minimal,
    is_rmin_saturated,
    k3_saturated_edge_bound,
)
from .search import (
    InconclusiveError,
    SearchBudget,
    SearchStats,
    count_bad_colorings,
    find_bad_coloring,
    find_max_red_bad_coloring,
)

__version__ = "0.1.0"
