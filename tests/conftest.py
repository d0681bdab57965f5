"""Shared pytest wiring.

After a run that touched the acceptance suite, a summary section lists
one PASS/FAIL line per acceptance check so the verdict is readable at a
glance without digging through the full log.

The hypothesis profile ``gate`` is the default one without the shrink
and explain phases.  The mutant gate (``tools/mutants.py``) selects it
on its own pytest command line: it needs a failure, not a minimal one
or an account of it, and with the same seed the generate phase draws
the same examples up to the first failure either way.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "gate", phases=[phase for phase in Phase if phase not in (Phase.shrink, Phase.explain)]
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = []
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if getattr(report, "when", "call") != "call" and outcome == "passed":
                continue
            name = nodeid.split("::")[-1]
            verdicts.append((name, label))
    if not verdicts:
        return
    terminalreporter.section("acceptance checks")
    for name, label in sorted(set(verdicts)):
        terminalreporter.write_line(f"[acceptance] {name}: {label}")
