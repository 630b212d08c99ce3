"""Twistor lifts, Gauss maps and isotropy classification for surfaces in E^4.

Surfaces are given by closed-form expressions F = (f1, f2, f3, f4)(u, v).
The package computes exact second-order jets, the classical pointwise
geometry (fundamental forms, shape operators, mean curvature, normal
connection), the algebra of orthogonal complex structures of E^4 with the
oriented-2-plane correspondence and the SO(4) double covers, twistor lifts
with stereographic charts, structure-equation residuals and the five-way
isotropy classification of minimal surfaces.
"""

__version__ = "0.1.0"

from . import errors
from .catalog import CATALOG, CatalogEntry, catalog_entries, get_surface
from .complex_structures import (
    OrientedPlane,
    OrthogonalComplexStructure,
    SO4Factorization,
    chirality_via_frame,
    classify_ocs,
    compose_ocs,
    h1h2_factorize,
    pair_to_plane,
    phi,
    phi_tilde,
    plane_to_pair,
)
from .geometry import (
    FieldGrid,
    FirstForm,
    Frame,
    NormalConnection,
    ShapeOperators,
    SurfacePointData,
    StructureResiduals,
    build_frame_auto,
    convergence_order,
    first_form,
    gauss_weingarten_matrices,
    mean_curvature,
    normal_connection,
    second_form,
    shape_operators,
    structure_residuals,
    surface_point_data,
)
from .linalg4 import (
    E4,
    basis_I,
    basis_vector,
    bivector_coords,
    det4,
    inner4,
    is_orthogonal,
    is_special_orthogonal,
    mat_inner,
    wedge,
)
from .surface_expr import (
    Jet2,
    SurfaceDef,
    eval_jet2,
    eval_surface_jet,
    parse,
    parse_surface,
    surface_from_json,
)
from .twistor import (
    ChartValue,
    IsotropyReport,
    LiftPoint,
    big_psi,
    chart,
    chart_residuals,
    g_plus_closed_form,
    gauss_map,
    holomorphicity_residual,
    inverse_chart,
    isotropy_report,
    lift_frame,
    lift_isothermal,
    psi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
