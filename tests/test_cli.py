"""The command-line interface."""

import pytest

from repro.cli import main
from repro.rankings import RankingDataset


@pytest.fixture
def dataset_file(tmp_path, small_dblp):
    path = tmp_path / "data.txt"
    small_dblp.save(path)
    return str(path)


class TestGenerate:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "generated.txt"
        code = main(
            ["generate", "dblp", "--size-factor", "0.05", "-o", str(out)]
        )
        assert code == 0
        dataset = RankingDataset.load(out)
        assert dataset.k == 10
        assert "wrote" in capsys.readouterr().out

    def test_scale(self, tmp_path):
        base = tmp_path / "x1.txt"
        grown = tmp_path / "x3.txt"
        main(["generate", "dblp", "--size-factor", "0.05", "-o", str(base)])
        main(["generate", "dblp", "--size-factor", "0.05", "--scale", "3",
              "-o", str(grown)])
        assert len(RankingDataset.load(grown)) == 3 * len(
            RankingDataset.load(base)
        )

    def test_unknown_profile_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nope", "-o", str(tmp_path / "x.txt")])


class TestJoin:
    def test_join_to_stdout(self, dataset_file, capsys, small_dblp):
        from repro.joins import bruteforce_join

        code = main(
            ["join", dataset_file, "--theta", "0.2", "--algorithm", "vj"]
        )
        assert code == 0
        out = capsys.readouterr().out
        printed = {
            tuple(map(int, line.split()[:2]))
            for line in out.splitlines()
            if line and not line.startswith("#")
        }
        assert printed == bruteforce_join(small_dblp, 0.2).pair_set()

    def test_join_to_file(self, dataset_file, tmp_path):
        out = tmp_path / "pairs.txt"
        main(
            ["join", dataset_file, "--theta", "0.2", "--algorithm", "cl",
             "-o", str(out)]
        )
        content = out.read_text().strip()
        if content:
            for line in content.splitlines():
                i, j, d = line.split()
                assert int(i) < int(j)
                assert int(d) >= 0

    def test_clp_suggests_delta(self, dataset_file, capsys):
        code = main(
            ["join", dataset_file, "--theta", "0.2", "--algorithm", "cl-p"]
        )
        assert code == 0
        assert "suggestion" in capsys.readouterr().out

    def test_algorithms_agree_via_cli(self, dataset_file, capsys):
        outputs = []
        for algorithm in ("vj", "cl"):
            main(["join", dataset_file, "--theta", "0.3",
                  "--algorithm", algorithm])
            out = capsys.readouterr().out
            outputs.append(
                {line.rsplit(" ", 1)[0] for line in out.splitlines() if line}
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--executor", "threads", "--max-workers", "0"], "max_workers"),
            (["--algorithm", "cl", "--theta-c", "0.3"], "theta_c"),
            (["--chaos", "seed=1,bogus=0.5"], "unknown key 'bogus'"),
            (["--chaos", "transient_rate=0.5"], "unknown key"),
            (["--chaos", "transient=1.5"], "must be in [0, 1]"),
            (["--chaos", "kill=lots"], "kill needs a number"),
            (["--chaos", "seed=0.5"], "seed needs a number"),
        ],
    )
    def test_bad_argument_values_exit_cleanly(
        self, dataset_file, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "pairs.txt"
        code = main(
            ["join", dataset_file, "--theta", "0.2", "-o", str(out), *flags]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro join: error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--no-shm"],
            ["--chaos-shm-unlink-rate", "1.0"],
            ["--chaos-seed", "42"],
            ["--chaos-rate", "0.2"],
            ["--chaos-kill-rate", "0.1"],
        ],
    )
    def test_removed_flags_are_rejected(self, dataset_file, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["join", dataset_file, "--theta", "0.2", *flags])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: " + flags[0] in captured.err

    def test_chaos_spec_builds_the_fault_plan(self):
        from repro.cli import CHAOS_KEYS, parse_chaos
        from repro.minispark import FaultPlan

        assert parse_chaos("seed=42, transient=0.2,kill=0.1") == FaultPlan(
            seed=42, transient_rate=0.2, kill_rate=0.1
        )
        every_key = ",".join(
            f"{key}={7 if key == 'seed' else 0.25}" for key in CHAOS_KEYS
        )
        assert parse_chaos(every_key) == FaultPlan(
            seed=7, transient_rate=0.25, straggler_rate=0.25, kill_rate=0.25,
            shuffle_loss_rate=0.25, spill_fault_rate=0.25,
            spill_write_error_rate=0.25,
        )

    def test_chaos_run_matches_clean_run(self, dataset_file, tmp_path, capsys):
        outputs = []
        for name, flags in (
            ("clean", []),
            ("chaos", ["--chaos", "seed=42,transient=0.3,straggler=0.05",
                       "--task-retries", "3", "--executor", "threads",
                       "--max-workers", "2"]),
        ):
            pairs, stats = tmp_path / f"{name}.txt", tmp_path / f"{name}.json"
            code = main(
                ["join", dataset_file, "--theta", "0.2", "--algorithm", "cl",
                 "-o", str(pairs), "--stats-out", str(stats), *flags]
            )
            assert code == 0
            outputs.append((pairs.read_bytes(), stats.read_bytes()))
        assert outputs[0] == outputs[1]
        assert "# recovery: retries " in capsys.readouterr().err


class TestStats:
    def test_prints_everything(self, dataset_file, capsys):
        code = main(["stats", dataset_file, "--theta", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        for needle in ("zipf-skew", "prefix", "eq4", "delta", "clusters"):
            assert needle in out

    def test_module_entry_point_exists(self):
        import importlib.util

        assert importlib.util.find_spec("repro.__main__") is not None


class TestDeltaJoin:
    @pytest.fixture
    def split_files(self, tmp_path, small_dblp):
        rankings = list(small_dblp)
        corpus = RankingDataset(rankings[:80])
        arrivals = RankingDataset(rankings[80:])
        corpus_path = tmp_path / "corpus.txt"
        arrivals_path = tmp_path / "arrivals.txt"
        corpus.save(corpus_path)
        arrivals.save(arrivals_path)
        return str(corpus_path), str(arrivals_path)

    def test_emits_only_arrival_pairs(self, split_files, capsys, small_dblp):
        corpus_path, arrivals_path = split_files
        code = main(
            ["delta-join", corpus_path, arrivals_path, "--theta", "0.25"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "delta pairs" in captured.err
        arrival_rids = {r.rid for r in list(small_dblp)[80:]}
        for line in captured.out.splitlines():
            i, j, d = line.split()
            # Every emitted pair involves at least one arrival.
            assert int(i) in arrival_rids or int(j) in arrival_rids
            assert int(i) < int(j) and int(d) >= 0

    def test_within_corpus_reproduces_batch_join(
        self, split_files, tmp_path, capsys, small_dblp
    ):
        corpus_path, arrivals_path = split_files
        out = tmp_path / "delta_pairs.txt"
        code = main(
            ["delta-join", corpus_path, arrivals_path, "--theta", "0.25",
             "--within-corpus", "-o", str(out)]
        )
        assert code == 0
        assert "corpus self-join" in capsys.readouterr().err
        from repro.joins import similarity_join

        batch = similarity_join(
            small_dblp, 0.25, algorithm="local"
        ).with_distances(small_dblp)
        # corpus self-join pairs went to stderr count only; the file holds
        # the arrival delta — its union with the corpus join is the batch
        # result, so every file pair must be a batch pair.
        batch_pairs = {(i, j) for i, j, _d in batch.pairs}
        file_pairs = {
            tuple(map(int, line.split()[:2]))
            for line in out.read_text().splitlines()
        }
        assert file_pairs <= batch_pairs

    def test_coarse_kind_and_scalar_kernel(self, split_files, capsys):
        corpus_path, arrivals_path = split_files
        code = main(
            ["delta-join", corpus_path, arrivals_path, "--theta", "0.2",
             "--kind", "coarse", "--kernel", "scalar", "--shards", "2"]
        )
        assert code == 0
        assert "delta pairs" in capsys.readouterr().err


class TestServe:
    def test_serves_and_exits_after_deadline(self, dataset_file, capsys):
        code = main(
            ["serve", dataset_file, "--port", "0",
             "--serve-seconds", "0.05"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "serving" in captured.out
        assert "served 0 requests" in captured.err

    def test_serve_roundtrip_over_tcp(self, dataset_file, small_dblp):
        import json
        import socket
        import subprocess
        import sys as _sys
        import time

        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", dataset_file,
             "--port", "0", "--serve-seconds", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        try:
            banner = proc.stdout.readline()
            assert "serving" in banner
            address = banner.split(" on ")[1].split(" ")[0]
            host, port = address.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5) as s:
                query = {"op": "query",
                         "items": list(small_dblp[0].items),
                         "theta": 0.2, "include_self": True}
                s.sendall((json.dumps(query) + "\n").encode())
                reply = json.loads(s.makefile().readline())
            assert [small_dblp[0].rid, 0] in reply["results"]
        finally:
            proc.terminate()
            proc.wait(timeout=10)
