"""qipsim: simulation and verification of interactive proofs with
finite-automaton verifiers.

A verifier is a unitary transition table over (state, comm symbol)
pairs, one table per tape symbol, with head movement determined by the
target pair.  Provers rewrite the shared comm cell between verifier
steps while keeping a private history tape.  The engine evolves the
joint configuration, measures out halting mass after every step, and
reports exact acceptance statistics; sweeps quantify the best any
message schedule or a given adversary family can score.
"""

from .errors import (
    BudgetError, EngineError, FamilyInadequacyError, LinalgError, ParseError,
    QipsimError, ValidationError,
)
from .linalg import (
    SparseVector, check_isometry, check_unitary, fourier_entry, make_qft,
)
from .automata import (
    BLANK, CORE, COMPLETION, GUARD, LEFT_END, RIGHT_END, OneRfaSpec,
    TwoNpfaSpec, VerifierSpec, build_step_operator, complete_verifier,
    first_option_chooser, padded_input, public_symbol, run_1rfa, run_2npfa,
    step_basis, validate_1rfa_reversible, validate_2npfa_normalized,
    validate_public, validate_wellformed,
)
from .provers import (
    ExplicitRoundProver, HistoryResponder, IdentityProver, MessageSchedule,
    Prover, check_classical, check_committed, enumerate_schedules,
)
from .engine import (
    EngineConfig, MCompTrace, RunResult, ScheduleSweep, FamilySweep,
    announcement_map, best_schedule_acceptance, interaction_count,
    query_weight, resolve_max_steps, run_mcomp, run_protocol, sweep_family,
)
from .zoo import (
    BUNDLES, ProtocolBundle, branch_npfa, center_protocol, coin_npfa,
    equal_blocks_protocol, last_option_chooser, make_bundle, mod3_rfa,
    npfa_embedding, odd_zeros_protocol, parity_rfa, rfa_embedding,
    zero_protocol,
)
from .specfile import (
    LoadedSpec, bundle_document, evaluate_amplitude, load_spec, parse_spec,
    serialize_spec, verifier_document,
)

__version__ = "0.1.0"

__all__ = [
    "BLANK", "BUNDLES", "BudgetError", "CORE", "COMPLETION",
    "EngineConfig", "EngineError", "ExplicitRoundProver", "FamilySweep",
    "FamilyInadequacyError", "GUARD", "HistoryResponder", "IdentityProver",
    "LEFT_END", "LinalgError", "LoadedSpec", "MCompTrace", "MessageSchedule",
    "OneRfaSpec", "ParseError", "ProtocolBundle", "Prover", "QipsimError",
    "RIGHT_END", "RunResult", "ScheduleSweep", "SparseVector", "TwoNpfaSpec",
    "ValidationError", "VerifierSpec", "announcement_map",
    "best_schedule_acceptance", "bundle_document", "evaluate_amplitude",
    "load_spec", "parse_spec", "serialize_spec", "verifier_document",
    "branch_npfa", "build_step_operator", "center_protocol", "check_classical",
    "check_committed", "check_isometry", "check_unitary", "coin_npfa",
    "complete_verifier",
    "enumerate_schedules", "equal_blocks_protocol", "first_option_chooser",
    "fourier_entry",
    "interaction_count", "last_option_chooser", "make_bundle", "make_qft",
    "mod3_rfa", "npfa_embedding", "odd_zeros_protocol", "padded_input",
    "parity_rfa", "public_symbol", "query_weight",
    "resolve_max_steps", "rfa_embedding", "run_1rfa", "run_2npfa",
    "run_mcomp", "run_protocol", "step_basis", "sweep_family",
    "validate_1rfa_reversible", "validate_2npfa_normalized",
    "validate_public", "validate_wellformed", "zero_protocol",
]
