"""Exact principal minors of Fourier matrices over the cyclotomic integers."""

__version__ = "0.1.0"

from .cyclotomic import CycElem, CycRing, cyclotomic_polynomial, ring_new
from .errors import PreconditionError, WorkerError
from .minors import IndexSet, MinorRecord, complement, det_exact, is_singular, minor_record
from .search import (Permutation, SearchConfig, SearchOutcome,
                     enumerate_good_permutations, find_good_permutation,
                     is_good_permutation)
from .theorems import (ScanConfig, ScanReport, Theorem1Report, WitnessPlan,
                       build_witness, is_square_free, scan_all,
                       smallest_square_factor, verify_theorem1, witness_sweep)

__all__ = [
    "CycElem", "CycRing", "cyclotomic_polynomial", "ring_new",
    "PreconditionError", "WorkerError",
    "IndexSet", "MinorRecord", "complement", "det_exact", "is_singular", "minor_record",
    "Permutation", "SearchConfig", "SearchOutcome",
    "enumerate_good_permutations", "find_good_permutation",
    "is_good_permutation",
    "ScanConfig", "ScanReport", "Theorem1Report", "WitnessPlan",
    "build_witness", "is_square_free", "scan_all", "smallest_square_factor",
    "verify_theorem1", "witness_sweep",
    "__version__",
]
