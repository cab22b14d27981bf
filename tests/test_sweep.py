from __future__ import annotations

import concurrent.futures
import json

import pytest

from signalfolio import config as cfgmod
from signalfolio.agent import blas_threads
from signalfolio.config import ConfigError, resolve
from signalfolio.sweep import (
    CellSpec,
    build_cells,
    cell_seed,
    read_sweep_csv,
    run_group,
    run_sweep,
    write_summary,
    write_sweep_csv,
)


def tiny_cfg(**overrides):
    base = {
        "market.synthetic.n_assets": 2,
        "market.synthetic.n_steps": 120,
        "market.synthetic.vol": 0.02,
        "market.synthetic.drift": 0.001,
        "market.synthetic.seed": 3,
        "split.fraction": 0.8,
        "window": 8,
        "agent.hidden": (8,),
        "agent.epochs": 2,
        "agent.batch_window": 16,
        "agent.learning_rate": 0.5,
        "sweep.accuracies": (0.6, 1.0),
        "sweep.densities": (1.0,),
        "seeds": (0,),
        "seed": 11,
    }
    base.update(overrides)
    return resolve(base)


class InProcessPool:
    """Stands in for ProcessPoolExecutor, running the groups in this process.

    It takes a worker initializer and its arguments but never runs it, so
    the test process keeps its own BLAS thread count.
    """

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.max_workers = max_workers
        self.initializer, self.initargs = initializer, initargs

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestCellSeeds:
    def test_deterministic(self):
        cell = CellSpec(0.7, 0.5, 3)
        assert cell_seed(42, cell) == cell_seed(42, cell)

    def test_distinct_across_cells_and_masters(self):
        cells = [
            CellSpec(0.7, 0.5, 3),
            CellSpec(0.7, 0.5, 4),
            CellSpec(0.7, 1.0, 3),
            CellSpec(0.5, 0.7, 3),
            CellSpec(None, None, 3),
        ]
        seeds = {cell_seed(42, c) for c in cells} | {cell_seed(43, c) for c in cells}
        assert len(seeds) == 2 * len(cells)

    def test_control_tag_untangled_from_values(self):
        # a control cell must never collide with a graded cell that happens
        # to share the per-run seed
        graded = CellSpec(1.0, 1.0, 3)
        control = CellSpec(None, None, 3)
        assert cell_seed(7, graded) != cell_seed(7, control)


class TestBuildCells:
    def test_grid_plus_controls(self):
        cfg = tiny_cfg(
            **{"sweep.accuracies": (0.5, 0.8), "sweep.densities": (0.4, 1.0), "seeds": (0, 1, 2)}
        )
        cells = build_cells(cfg)
        assert len(cells) == 2 * 2 * 3 + 3
        controls = [c for c in cells if c.is_control]
        assert len(controls) == 3
        assert {c.seed for c in controls} == {0, 1, 2}

    def test_values_validated(self):
        with pytest.raises(ConfigError):
            build_cells(tiny_cfg(**{"sweep.accuracies": (1.5,)}))
        with pytest.raises(ConfigError):
            build_cells(tiny_cfg(**{"sweep.densities": ("high",)}))
        with pytest.raises(ConfigError):
            build_cells(tiny_cfg(**{"sweep.accuracies": ()}))
        with pytest.raises(ConfigError, match=r"accuracies: duplicate values in \(1.0, 1.0\)"):
            build_cells(tiny_cfg(**{"sweep.accuracies": (1, 1.0)}))


def run_cell(cfg, cell):
    """A group of one cell; its row, which has no "error"."""
    train_prices, test_prices = cfgmod.build_segments(cfg)
    [row] = run_group(cfg, train_prices, test_prices, cfgmod.build_cost(cfg), [cell])
    assert "error" not in row, row.get("error")
    return row


class TestRunCell:
    def test_graded_cell_row(self):
        row = run_cell(tiny_cfg(), CellSpec(1.0, 1.0, 0))
        assert set(row) == {"accuracy", "density", "seed", "final_pv", "sharpe"}
        assert row["accuracy"] == 1.0
        assert row["final_pv"] > 0

    def test_control_cell_row(self):
        row = run_cell(tiny_cfg(), CellSpec(None, None, 0))
        assert row["accuracy"] is None
        assert row["density"] is None
        assert row["final_pv"] > 0

    def test_cell_rows_reproducible(self):
        a = run_cell(tiny_cfg(), CellSpec(0.6, 1.0, 0))
        b = run_cell(tiny_cfg(), CellSpec(0.6, 1.0, 0))
        assert a == b


class TestRunSweep:
    def test_rows_sorted_controls_last(self):
        rows, failures = run_sweep(tiny_cfg())
        assert failures == []
        assert len(rows) == 2 + 1
        assert [r["accuracy"] for r in rows] == [0.6, 1.0, None]

    def test_rerun_identical(self):
        first, _ = run_sweep(tiny_cfg())
        second, _ = run_sweep(tiny_cfg())
        assert first == second

    def test_extending_grid_keeps_existing_cells(self):
        small, _ = run_sweep(tiny_cfg(**{"sweep.accuracies": (0.6,)}))
        large, _ = run_sweep(tiny_cfg(**{"sweep.accuracies": (0.6, 1.0)}))
        by_key = {(r["accuracy"], r["density"], r["seed"]): r for r in large}
        for row in small:
            assert by_key[(row["accuracy"], row["density"], row["seed"])] == row

    def test_parallel_matches_serial(self):
        serial, _ = run_sweep(tiny_cfg())
        parallel, _ = run_sweep(tiny_cfg(jobs=2))
        assert serial == parallel

    def test_unsorted_grid_gives_the_sorted_rows(self):
        # cells run in sorted order, and each group's rows go back to their places
        serial, _ = run_sweep(tiny_cfg())
        unsorted = tiny_cfg(jobs=2, **{"sweep.accuracies": (1.0, 0.6)})
        assert run_sweep(unsorted)[0] == serial

    def test_rows_identical_for_any_number_of_jobs(self):
        serial, _ = run_sweep(tiny_cfg())
        for jobs in (2, 3):
            assert run_sweep(tiny_cfg(jobs=jobs))[0] == serial

    @pytest.mark.parametrize(
        "jobs,group_sizes", [(1, [3]), (2, [2, 1]), (3, [1, 1, 1]), (5, [1, 1, 1])]
    )
    def test_one_train_call_per_group(self, monkeypatch, jobs, group_sizes):
        calls = []
        real_train = cfgmod.train

        def counting_train(params, *args, **settings):
            calls.append(len(params))
            return real_train(params, *args, **settings)

        monkeypatch.setattr(cfgmod, "train", counting_train)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        rows, failures = run_sweep(tiny_cfg(jobs=jobs))
        assert failures == [] and len(rows) == 3
        assert calls == group_sizes

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        # Each worker reports its thread count by the error it raises; the
        # pool's stand-in takes the same initializer and leaves this process alone.
        here = blas_threads()
        if here is None:
            pytest.skip("numpy bundles no OpenBLAS whose thread count ctypes can read")

        def report(*args):
            raise RuntimeError(f"worker blas threads {blas_threads()}")

        monkeypatch.setattr(cfgmod, "train_agents", report)
        with pytest.raises(RuntimeError, match="^worker blas threads 1$"):
            run_sweep(tiny_cfg(jobs=2))
        assert blas_threads() == here
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        with pytest.raises(RuntimeError, match=f"^worker blas threads {here}$"):
            run_sweep(tiny_cfg(jobs=2))

    def test_setup_failure_fails_one_cell(self, monkeypatch):
        expected, _ = run_sweep(tiny_cfg())
        real_labeller = cfgmod.labeller

        def labeller(cfg, train_p):
            if cfg["signal.mode"] != "none":
                return real_labeller(cfg, train_p)

            def no_labels(segment, seed):
                raise RuntimeError("no labels for the control")

            return no_labels

        monkeypatch.setattr(cfgmod, "labeller", labeller)
        rows, failures = run_sweep(tiny_cfg())
        assert rows == expected[:2]
        assert [f["accuracy"] for f in failures] == [None]
        assert "no labels for the control" in failures[0]["error"]

    def test_cell_failures_reported_not_raised(self):
        # a split too short for the observation window would break every
        # cell, so it fails the run before any cell is set up
        cfg = tiny_cfg(**{"market.synthetic.n_steps": 30, "split.fraction": 0.8})
        with pytest.raises(ConfigError, match=r"^split\.fraction: segment too short"):
            run_sweep(cfg)


class TestSweepCsv:
    def test_round_trip_with_control_blanks(self, tmp_path):
        rows, _ = run_sweep(tiny_cfg())
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        text = path.read_text()
        assert text.splitlines()[0] == "accuracy,density,seed,final_pv,sharpe"
        assert text.splitlines()[-1].startswith(",,0,")
        assert read_sweep_csv(path) == rows

    def test_summary_counts(self, tmp_path):
        rows, failures = run_sweep(tiny_cfg())
        path = tmp_path / "summary.json"
        write_summary(rows, failures, path)
        payload = json.loads(path.read_text())
        assert payload["cells_completed"] == 3
        assert payload["cells_failed"] == 0
        assert payload["failed"] == []
