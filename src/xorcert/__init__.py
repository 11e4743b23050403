"""Certified refutation of semi-random k-XOR and partitioned 2-XOR instances."""
from __future__ import annotations

from .config import DEFAULT_CONFIG, RefuteConfig
from .generate import (FAMILIES, GenSpec, gen_adversarial_hypergraph, gen_kxor,
                       gen_random_partitioned)
from .instances import (Assignment, DegreeProfile, KXorInstance,
                        PartitionedInstance, bias, canonical_json, degree_profile,
                        eval_kxor, eval_partitioned, from_json_dict,
                        instance_digest, load_instance, save_instance,
                        to_json_dict)
from .linalg import (NormBound, bernstein_tail, bernstein_threshold, l1_norm_bound,
                     min_eig_check, spectral_norm)
from .oracle import brute_force_inf1, brute_force_val
from .pipeline import (REFUTED, SCHEMA, UNKNOWN, Certificate, refute_kxor,
                       refute_partitioned, verify_certificate,
                       verify_certificate_detailed)
from .reduce import (BipartiteInstance, Decomposition, ReducedKXor,
                     SubsetDictionary, bipartite_matrix, decompose,
                     kxor_to_partitioned)
from .sdp import KG_UPPER, DualCert, inf1_upper, z_matrix
from .spectral import (Block, BlockRecord, ButterflyTable, DBoundedReport,
                       WeightClassPartition, block_r_bound, block_variance_bound,
                       butterfly, certify_dbounded, dup_correction, phi2_term,
                       weight_classes)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "BipartiteInstance", "Block", "BlockRecord",
    "ButterflyTable", "Certificate", "DBoundedReport", "DEFAULT_CONFIG",
    "Decomposition", "DegreeProfile", "DualCert", "FAMILIES", "GenSpec",
    "KG_UPPER", "KXorInstance", "NormBound", "PartitionedInstance", "REFUTED",
    "ReducedKXor", "RefuteConfig", "SCHEMA", "SubsetDictionary", "UNKNOWN",
    "WeightClassPartition", "bernstein_tail", "bernstein_threshold", "bias",
    "bipartite_matrix", "block_r_bound", "block_variance_bound",
    "brute_force_inf1", "brute_force_val", "butterfly",
    "canonical_json", "certify_dbounded", "decompose", "degree_profile",
    "dup_correction", "eval_kxor", "eval_partitioned", "from_json_dict",
    "gen_adversarial_hypergraph", "gen_kxor", "gen_random_partitioned",
    "inf1_upper", "instance_digest", "kxor_to_partitioned", "l1_norm_bound",
    "load_instance", "min_eig_check", "phi2_term", "refute_kxor",
    "refute_partitioned", "save_instance", "spectral_norm", "to_json_dict",
    "verify_certificate", "verify_certificate_detailed", "weight_classes",
    "z_matrix",
]
