"""Simulator and verification harness for a (t, n)-threshold d-level quantum
secret sharing protocol: Shamir dealing over a prime field, a qudit
state-vector implementation of the reconstruction circuit, and an adversary
harness with empirical detection and leakage statistics."""

__version__ = "0.1.0"

from .adversary import AttackReport, AttackSpec, run_attack
from .dealer import DealerConfig, SharePacket, choose_modulus, deal, hash_to_field
from .field import (
    PrimeModulus,
    eval_poly,
    field_inv,
    interpolate_at_zero,
    lagrange_coeff,
    shadow,
)
from .protocol import (
    Channel,
    ProtocolInstance,
    ProtocolTranscript,
    instance_from_deal,
    instance_from_players,
    instance_from_shadows,
    verify_hash,
)
from .qudit import (
    QuditState,
    RegisterLayout,
    apply_copy,
    apply_iqft,
    apply_qft,
    apply_shadow_phase,
    basis_state,
    measure,
)

__all__ = [
    "AttackReport",
    "AttackSpec",
    "Channel",
    "DealerConfig",
    "PrimeModulus",
    "ProtocolInstance",
    "ProtocolTranscript",
    "QuditState",
    "RegisterLayout",
    "SharePacket",
    "apply_copy",
    "apply_iqft",
    "apply_qft",
    "apply_shadow_phase",
    "basis_state",
    "choose_modulus",
    "deal",
    "eval_poly",
    "field_inv",
    "hash_to_field",
    "instance_from_deal",
    "instance_from_players",
    "instance_from_shadows",
    "interpolate_at_zero",
    "lagrange_coeff",
    "measure",
    "run_attack",
    "shadow",
    "verify_hash",
]
