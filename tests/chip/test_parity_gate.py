"""The chip scan CI gate (``python -m repro.chip.parity``), run with the
CI workflow's quick arguments."""

import re

import pytest

from repro.chip.parity import main

QUICK = ["--size", "4096", "--window", "512", "--stride", "256",
         "--image-size", "16"]


def test_parity_mode(capsys):
    assert main([*QUICK, "--edits", "4"]) == 0
    out = capsys.readouterr().out
    for backend in ("float", "packed"):
        for check in ("streamed", "eco", "repeated-cell"):
            assert f"[{backend}] {check} parity: OK" in out, out
    # the service check runs once, on the served engine
    assert re.findall(r"^\[(\w+)\] service scan parity: OK", out,
                      re.MULTILINE) == ["packed"], out
    assert "chip parity: all checks passed" in out


def test_chaos_mode(capsys):
    assert main([*QUICK, "--chaos", "--kills", "3"]) == 0
    out = capsys.readouterr().out
    for backend in ("float", "packed"):
        assert f"[{backend}] durable scan parity: OK" in out, out
    assert "chip durability: all checks passed" in out


def test_backends_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as info:
        main([*QUICK, "--backends", "packed"])
    assert info.value.code == 2
    assert "unrecognized arguments: --backends" in capsys.readouterr().err
