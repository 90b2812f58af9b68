"""Exact-arithmetic toolkit for toric log del Pezzo surfaces given by lattice
polygons: cone and fan invariants, isomorphism graphs, the one-singularity
classification, and anticanonical quadric embeddings."""

from .cones import ConeData, cone_invariants, socius
from .delpezzo import (Classification, LdpData, canonical_polygon,
                       classify_one_singularity, count_one_singularity,
                       enumerate_one_singularity, group_classes, ldp_analyze,
                       index_parity_check, mirror_quad, mirror_quad_map)
from .embedding import (EmbeddingData, QuadricIdealReport, TableRow,
                        embedding_data, enumerated_row, format_ideal,
                        minimal_system, quadric_count_by_counting, sum_fibers,
                        table_formulas, write_ideal)
from .errors import (ConsistencyError, DomainError, ParseError,
                     SingularityCountError)
from .fans import FanAnalysis, analyze_fan, fan_from_polygon
from .graphs import (canonical_key, graph_of, render_graph, reverse_graph,
                     surfaces_isomorphic)
from .lattice import (LatticePolygon, PointCounts, UnimodularMap, apply_map,
                      count_lattice_points, cross, dilate, format_polygon_text,
                      is_primitive, lattice_points, load_polygon,
                      minkowski_double, parse_polygon_text, polygon_area2,
                      polygon_from_array, polygon_to_array, read_polygon_file)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
