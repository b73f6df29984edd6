"""The exact path gives the recorded intervals, markers, islands, folds and CLI outputs."""

import json
import re

import pytest

from exact_contract import CONTRACT, DEMO_CHAIN, cli_contract, contract, dumps, split_residuals
from ptlattice.cli import main

STORED = json.loads(CONTRACT.read_text(encoding="utf-8"))
FAMILIES = {name: entry for name, entry in STORED.items() if name != "cli"}


@pytest.fixture(scope="module")
def current():
    return contract()


@pytest.mark.parametrize("name", sorted(FAMILIES))
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

    assert set(FAMILIES) == {m.value for m in Model} | {"demo-chain"}
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


@pytest.fixture(scope="module")
def current_cli():
    return {record["id"]: record for record in cli_contract()}


def _same_bundle(new, old, where):
    # Byte for byte but each coalescence residual, a LAPACK angle, kept within 1e-6.
    (new_text, new_residuals), (old_text, old_residuals) = map(split_residuals, (new, old))
    assert new_text == old_text, where
    assert new_residuals == pytest.approx(old_residuals, rel=1e-6), where


@pytest.mark.parametrize("record", STORED["cli"], ids=lambda record: record["id"])
def test_cli_commands_equal_the_stored_contract(record, current_cli):
    now = current_cli[record["id"]]
    assert now["command"] == record["command"]
    for run in ("plain", "out"):
        old, new = record[run], now[run]
        where = (record["id"], run)
        assert (new["code"], new["stderr"]) == (old["code"], old["stderr"]), where
        _same_bundle(new["stdout"], old["stdout"], where)
    assert now["out"]["svg"] == record["out"]["svg"], record["id"]
    _same_bundle(now["out"]["file"], record["out"]["file"], record["id"])


def test_split_residuals_cuts_out_only_coalescence_residuals():
    text = (
        "# table: eps\nt_star,order,kind,residual\n"
        "1.5,2,complexification,1e-10\n"
        "1.4142135623730951,2,real-coalescence,2.1794243779460445e-16\n"
    )
    masked, residuals = split_residuals(text)
    assert residuals == [2.1794243779460445e-16]
    assert masked == text.replace("2.1794243779460445e-16", "<residual>")
