"""Exact systoles of weighted graphs and cogirths of regular matroids, with
surface-embedding and six-involution certificates."""

from .catalog import catalog, named_cycle
from .exact import BitMatrix, IntMatrix, Rat, det, kernel_lattice_basis, odd_determinant_check, rank_f2, rank_q
from .graph import Cycle, MultiGraph, betti, edge_cut_below, girth, min_weight_cycle, reduce_to_cubic, split_vertex
from .involutions import InvolutionSet, six_involutions, verify_involutions
from .matroid import BinaryMatroid, WeightedRep, cographic, dual, graphic, ksum_rep, odd_transform, r10, simplify, sum1, sum2, sum3
from .optimize import CogirthResult, SystoleResult, bound_decomposable, bound_large_girth, bound_small_cycle, c_of_rep, cogirth, lp_max, systole, systole_weighted
from .cubicgen import canonical_form, generate_cubic
from .surface import EmbeddingCertificate, RotationSystem, embedding_systole_bound, embeds_in, trace_faces
from .tables import verify_tables

__version__ = "0.1.0"
