"""delottery-sim: a deterministic simulator of a commit-reveal lottery.

The package models a small proof-of-work ledger, a RANDAO-style
commit-reveal randomness round with slashable deposits, a seven-phase
lottery state machine on top of it, two executable attacker models
(block withholding and Sybil identity flooding), and a scenario harness
that turns all of it into seeded, reproducible experiments.

Typical use:

    from delottery_sim import load_scenario, run_once
    report = run_once(load_scenario("scenarios/honest-small.txt"), seed=42)
    print(report.data["winner_histogram"])
"""

from .adversary import (
    CERT_HONEST_REFUSE,
    CERT_RUBBERSTAMP,
    MODE_COMMIT_REVEAL,
    MODE_NAIVE,
    NodeAttacker,
    RoundOutcome,
    favorable,
    run_commit_reveal_mode_round,
    run_naive_mode_round,
    sybil_admission_trial,
    sybil_spawn,
)
from .chain import (
    Account,
    Block,
    Event,
    FEE_SINK,
    Ledger,
    PowProof,
    bounded_pow,
    chain_dump,
    create_account,
    mine_block,
    preview_block,
    solve_pow,
    verify_chain,
    verify_pow,
)
from .errors import (
    AdmissionRejected,
    AuthTagError,
    BindingViolation,
    ConfigError,
    DuplicateAddress,
    InsufficientBalance,
    PhaseError,
    ProtocolError,
    ReportError,
    ScenarioError,
    UnknownAddress,
    WindowError,
)
from .harness import (
    RunReport,
    emit_report,
    load_report,
    report_csv_bytes,
    report_json_bytes,
    run_many,
    run_once,
    verify_report,
)
from .hashing import H, MAX_TARGET, digest_int, encode_i64, le8
from .lottery import (
    LotteryConfig,
    LotteryState,
    PHASES,
    POOL_CONSISTENT,
    POOL_LITERAL,
    add_player,
    admission_challenge,
    ban_player,
    begin_betting,
    begin_key_upload,
    buy_shares,
    compute_deposit,
    deploy,
    derive_winners,
    draw,
    enter_buffer,
    reveal_key,
    settle,
    settlement_report,
    upload_key,
    winning_share_count,
)
from .prng import Stream, splitmix64, stream_seed
from .randao import (
    Commitment,
    Reveal,
    RngRound,
    combine,
    commit,
    commit_hash_for,
    finalize,
    open_round,
    peek_output,
    reveal,
    round_transcript,
)
from .scenario import (
    NodeAttackerSpec,
    PlayerSpec,
    Scenario,
    SybilAttackerSpec,
    load_scenario,
    parse_scenario,
)
from .stats import CHI2_CRIT_01, binomial_sigma, chi_square_uniform, pooled_standard_error

__version__ = "0.1.0"
