"""Extreme Khovanov cohomology from the Lando graph.

The pipeline: a link diagram (PD code) resolves to its all-A state, whose
admissible chords form the Lando graph; the independence complex of that
graph computes the extreme-quantum-grading row of Khovanov cohomology, a
claim the package keeps honest by recomputing the same row from the
enhanced-state cochain complex and, on a third route, from the Alexander
dual of a Jonsson complex.

The package namespace holds the documented API: the entry points, the
types they return and the exceptions they raise.  Everything else is
imported from its module (``exkh.khovanov``, ``exkh.simplicial``, ...).
"""

from .diagram import Diagram, parse_pd
from .errors import (
    ArcLabelNotPairedTwice,
    CapExceeded,
    ClaspFailed,
    DiagramError,
    EmptyDiagram,
    EmptyPartW,
    ExkhError,
    InconsistentOrientation,
    MalformedTuple,
    NonPlanarDiagram,
    NotAComplex,
    NotBipartition,
    SameComponent,
)
from .extreme import ExtremeRow, extreme_row, extreme_via_brute, extreme_via_lando
from .families import CatalogEntry, from_chord_diagram, load_catalog, thick_family
from .khovanov import (
    CohomologyTable,
    LaurentPoly,
    graded_jones,
    j_bounds,
    kauffman_bracket,
    khovanov_cohomology,
    scanned_j_range,
)
from .lando import Graph, build_lando, independence_number
from .simplicial import AbelianGroup, SimplicialComplex, independence_complex

__version__ = "0.1.0"
