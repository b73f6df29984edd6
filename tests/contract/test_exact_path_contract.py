"""The exact path gives the recorded intervals, markers, islands and folds."""

import json
import re

import pytest

from exact_contract import CONTRACT, DEMO_CHAIN, contract, dumps
from ptlattice.cli import main

STORED = json.loads(CONTRACT.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return contract()


@pytest.mark.parametrize("name", sorted(STORED))
def test_exact_path_equals_the_stored_contract(name, current):
    stored, now = STORED[name], current[name]
    assert now["folded"] == stored["folded"]
    assert len(now["ranges"]) == len(stored["ranges"])
    for old, new in zip(stored["ranges"], now["ranges"]):
        where = (name, old["lo"], old["hi"])
        assert (new["lo"], new["hi"]) == (old["lo"], old["hi"])
        assert new["intervals"] == old["intervals"], where
        assert new["islands"] == old["islands"], where
        # Bit for bit but the residual, a coalescence's alignment angle from LAPACK.
        assert [e[:3] for e in new["eps"]] == [e[:3] for e in old["eps"]], where
        assert [e[3] for e in new["eps"]] == pytest.approx([e[3] for e in old["eps"]], rel=1e-6)


def test_contract_covers_every_registry_family_and_the_demo_chain():
    from ptlattice import Model

    assert set(STORED) == {m.value for m in Model} | {"demo-chain"}
    assert dumps(STORED) == CONTRACT.read_text(encoding="utf-8")  # as the script writes it


# README commands, each with the one CSV row it must print, as grep finds a line.
CLI_ROWS = [
    pytest.param(
        ["domains", "--model", "mdg6-w1", "--t-min", "-0.4", "--t-max", "0.4"],
        r"-0\.14997243286963111,2,complex-coalescence,",
        id="domains-mdg6-w1",
    ),
    pytest.param(
        ["ep", "--model", "ec4", "--t-min", "1.0", "--t-max", "1.45"],
        r"1\.4142135623730951,2,real-coalescence,",
        id="ep-ec4",
    ),
    pytest.param(
        ["domains", "--config", str(DEMO_CHAIN), "--t-min", "0", "--t-max", "3"],
        r"2\.7320508075688772,2,complexification,1e-10$",
        id="domains-demo-chain",
    ),
    pytest.param(
        ["domains", "--model", "ec4", "--t-min", "0", "--t-max", "1.5"],
        r"0,1\.5,4,",
        id="domains-ec4",
    ),
]


@pytest.mark.parametrize("argv, pattern", CLI_ROWS)
def test_readme_commands_print_their_pinned_rows(argv, pattern, capsys):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(bool(re.match(pattern, line)) for line in lines) == 1
