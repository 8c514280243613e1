"""Tests for the pace-est command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


@pytest.fixture()
def simulated_fasta(tmp_path):
    fa = tmp_path / "bench.fa"
    truth = tmp_path / "truth.tsv"
    rc = main(
        [
            "simulate", str(fa),
            "--genes", "6", "--coverage", "9", "--read-length", "120",
            "--seed", "4", "--truth", str(truth),
        ]
    )
    assert rc == 0
    return fa, truth


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_defaults_follow_paper(self):
        args = build_parser().parse_args(["cluster", "x.fa"])
        assert args.w == 8 and args.psi == 25 and args.batchsize == 60
        assert args.align_batch == 64

    def test_machine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "x.fa", "--machine", "quantum"])


class TestSimulate:
    def test_writes_fasta_and_truth(self, simulated_fasta):
        fa, truth = simulated_fasta
        assert fa.read_text().startswith(">EST00000")
        lines = truth.read_text().strip().splitlines()
        assert all("\t" in line for line in lines)
        n_fasta = fa.read_text().count(">")
        assert len(lines) == n_fasta


class TestClusterCommand:
    def _cluster_args(self, fa, out):
        return [
            "cluster", str(fa), "-o", str(out),
            "--w", "6", "--psi", "15", "--min-overlap", "30", "--min-ratio", "0.8",
        ]

    def test_cluster_and_evaluate_roundtrip(self, simulated_fasta, tmp_path, capsys):
        fa, truth = simulated_fasta
        out = tmp_path / "clusters.tsv"
        assert main(self._cluster_args(fa, out)) == 0
        assert main(["evaluate", str(out), str(truth)]) == 0
        printed = capsys.readouterr().out
        assert "OQ=" in printed and "CC=" in printed
        # Quality on an easy synthetic benchmark must be high.
        oq = float(printed.split("OQ=")[1].split("%")[0])
        assert oq > 90.0

    def test_cluster_to_stdout(self, simulated_fasta, capsys):
        fa, _truth = simulated_fasta
        assert main(["cluster", str(fa), "--w", "6", "--psi", "15"]) == 0
        out = capsys.readouterr().out
        assert all("\t" in line for line in out.strip().splitlines())

    def test_per_cluster_fasta_dir(self, simulated_fasta, tmp_path):
        fa, _truth = simulated_fasta
        out = tmp_path / "clusters.tsv"
        fa_dir = tmp_path / "per_cluster"
        argv = self._cluster_args(fa, out) + ["--clusters-fasta-dir", str(fa_dir)]
        assert main(argv) == 0
        files = sorted(fa_dir.glob("cluster_*.fa"))
        assert files
        # Every input EST appears in exactly one cluster file.
        names = []
        for f in files:
            names += [l[1:].strip() for l in f.read_text().splitlines() if l.startswith(">")]
        assert len(names) == len(set(names)) == fa.read_text().count(">")

    def test_representatives_output(self, simulated_fasta, tmp_path):
        fa, _truth = simulated_fasta
        out = tmp_path / "clusters.tsv"
        reps = tmp_path / "reps.fa"
        argv = self._cluster_args(fa, out) + ["--representatives", str(reps)]
        assert main(argv) == 0
        n_clusters = len({l.split("\t")[1] for l in out.read_text().splitlines()})
        rep_text = reps.read_text()
        assert rep_text.count(">") == n_clusters
        assert "cluster_0 size=" in rep_text

    def test_parallel_simulated(self, simulated_fasta, tmp_path):
        fa, _truth = simulated_fasta
        out_seq = tmp_path / "seq.tsv"
        out_par = tmp_path / "par.tsv"
        assert main(self._cluster_args(fa, out_seq)) == 0
        argv = self._cluster_args(fa, out_par) + [
            "--parallel", "4", "--machine", "simulated",
        ]
        assert main(argv) == 0
        assert out_seq.read_text() == out_par.read_text()

    def test_ambiguity_code_is_a_one_line_error(self, tmp_path):
        fa = tmp_path / "n.fa"
        fa.write_text(">ok\nACGTACGTACGT\n>est_n7\nACGTNACGTACG\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster", str(fa)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            timeout=120,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"{fa}: record 'est_n7': invalid DNA character 'N' in sequence"
        ]

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--align-batch", "-1"], "align_batch must be >= 0, got -1"),
            (["--batchsize", "0"], "batchsize must be > 0, got 0"),
            (["--psi", "4"], "psi (4) must be >= w (8)"),
        ],
    )
    def test_invalid_option_value_is_a_one_line_usage_error(
        self, tmp_path, option, message
    ):
        fa = tmp_path / "ok.fa"
        fa.write_text(">ok\nACGTACGTACGT\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster", str(fa), *option],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"pace-est cluster: {message}")


class TestEvaluate:
    def test_missing_est_rejected(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("x\t0\n")
        b.write_text("x\t0\ny\t1\n")
        with pytest.raises(SystemExit, match="missing"):
            main(["evaluate", str(a), str(b)])

    def test_malformed_line_rejected(self, tmp_path):
        a = tmp_path / "a.tsv"
        a.write_text("justonecolumn\n")
        with pytest.raises(SystemExit, match="expected"):
            main(["evaluate", str(a), str(a)])

    def test_comments_and_blanks_ignored(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        a.write_text("# header\n\nx\t0\ny\t0\n")
        assert main(["evaluate", str(a), str(a)]) == 0
        assert "OQ=100.00%" in capsys.readouterr().out
