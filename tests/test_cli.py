"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main
from tests.conftest import MINI_KERNEL


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.npir"
    path.write_text(MINI_KERNEL)
    return str(path)


def test_analyze_file(kernel_file, capsys):
    assert main(["analyze", kernel_file]) == 0
    out = capsys.readouterr().out
    assert "non-switch regions" in out
    assert "PR in" in out


def test_analyze_bench_spec(capsys):
    assert main(["analyze", "bench:frag"]) == 0
    assert "frag" in capsys.readouterr().out


def test_allocate_and_write_output(kernel_file, tmp_path, capsys):
    out_dir = tmp_path / "alloc"
    assert (
        main(
            [
                "allocate",
                kernel_file,
                kernel_file,
                "--nreg",
                "16",
                "-o",
                str(out_dir),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "SGR" in out
    written = sorted(p.name for p in out_dir.iterdir())
    assert len(written) == 2
    text = (out_dir / written[0]).read_text()
    assert "$r" in text and "%" not in text


def test_run_reference(kernel_file, capsys):
    assert main(["run", kernel_file, "--packets", "4"]) == 0
    out = capsys.readouterr().out
    assert "4 packets" in out


def test_run_allocated_verifies(kernel_file, capsys):
    assert (
        main(
            ["run", kernel_file, "--packets", "4", "--allocated", "--nreg", "12"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "verified against reference: True" in out


def test_library_errors_exit_2_without_traceback(kernel_file, capsys):
    # AllocationError from an infeasible budget, and EngineError from a
    # feature the fast engine lacks: both are ReproErrors, reported by
    # main() as one line on stderr.
    for argv, message in (
        (["allocate", kernel_file, kernel_file, "--nreg", "2"], "cannot fit"),
        (
            ["profile", kernel_file, "--engine", "fast", "--packets", "2"],
            "fast engine does not support",
        ),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fabric", "status", "DIR"],
        ["bench", "fabric"],
        ["profile", "--fabric", "DIR", "bench:crc"],
        ["analyze", "--analysis-impl", "reference", "bench:crc"],
        ["bench", "table1", "--engine", "fast"],
        ["chaos", "--engine", "fast"],
    ],
    ids=[
        "fabric-command",
        "bench-fabric",
        "fabric-flag",
        "analysis-impl-flag",
        "bench-engine-flag",
        "chaos-engine-flag",
    ],
)
def test_removed_fabric_surface_is_a_usage_error(argv, tmp_path, capsys):
    argv = [str(tmp_path) if arg == "DIR" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_encode_requires_physical(kernel_file, capsys):
    assert main(["encode", kernel_file]) == 1
    assert "allocate it first" in capsys.readouterr().err


def test_encode_round(tmp_path, kernel_file, capsys):
    out_dir = tmp_path / "alloc"
    main(["allocate", kernel_file, "--nreg", "16", "-o", str(out_dir)])
    capsys.readouterr()
    allocated = next(out_dir.iterdir())
    binary = tmp_path / "code.hex"
    assert main(["encode", str(allocated), "-o", str(binary)]) == 0
    lines = binary.read_text().splitlines()
    assert lines and all(len(l) == 16 for l in lines)


def test_suite_listing(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "md5" in out and "wraps_recv" in out


NPC_SRC = """
while (1) {
    p = recv();
    if (p == 0) break;
    mem[p + 1] = mem[p] * 4 + 2;
    send(p);
}
halt();
"""


@pytest.fixture
def npc_file(tmp_path):
    path = tmp_path / "double.npc"
    path.write_text(NPC_SRC)
    return str(path)


def test_compile_npc(npc_file, capsys):
    assert main(["compile", npc_file]) == 0
    out = capsys.readouterr().out
    assert "recv" in out and "halt" in out
    assert "shli" in out  # *4 strength-reduced


def test_compile_npc_no_opt(npc_file, capsys):
    assert main(["compile", npc_file, "--no-opt"]) == 0
    out = capsys.readouterr().out
    assert "muli" in out  # raw codegen keeps the multiply


def test_run_npc_file_allocated(npc_file, capsys):
    assert (
        main(["run", npc_file, "--allocated", "--nreg", "8", "--packets", "3"])
        == 0
    )
    out = capsys.readouterr().out
    assert "verified against reference: True" in out


def test_analyze_npc_file(npc_file, capsys):
    assert main(["analyze", npc_file]) == 0
    assert "bounds" in capsys.readouterr().out
