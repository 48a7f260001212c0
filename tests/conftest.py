"""Shared pytest plumbing: surface acceptance verdicts past output capture."""

ACCEPTANCE_VERDICTS: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def tick_to(ledger, tick: int) -> None:
    """Move the ledger clock forward to `tick`; it never runs back."""
    assert ledger.clock <= tick, f"ledger clock {ledger.clock} is already past {tick}"
    while ledger.clock < tick:
        ledger.advance_clock()
