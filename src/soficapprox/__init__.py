"""Certified sofic approximations of finite partial groups.

Exact-rational Hamming geometry on finite symmetric groups, chunk (partial
group) validation, a certificate-producing profile search, a growth-function
calculus, bounded lazy permutations of the naturals with their supp-morphism
restrictions, and the block-direct-sum realization construction.
"""

from .chunk import Chunk, ValidationReport, format_chunk, induced_chunk, parse_chunk, validate
from .growth import Affine, BlockStep, Compose, GrowthFn, Infinity, Linear, Power, Tabulated, growth_profile, is_slow, ll, lt_eventually, parse_growth, sim
from .lazyperm import BoundWitness, GChunk, LazyPerm, Realization, audit, build_gchunk, property_profile, realize, supp_morphism, supp_quality
from .permcore import CycleType, Perm, block_sum, compose, cycle_type, cycle_type_representative, fixed_point_count, hamming_distance, identity, inverse
from .profile import MorphismQuality, ProfileCertificate, measure, profile_table, sofic_profile

__version__ = "0.1.0"
