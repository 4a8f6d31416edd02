"""``mode="mmap"`` datasets: arena parity, worker attach, invalidation.

The zero-copy arena must be an invisible optimization: every
experiment result, every summary, and every worker hand-off has to be
value-identical to the in-RAM path.  These tests run a short window
(days/seed fixed) through both modes and diff the serialized results.
"""

import json
import os
import pickle
import re

import numpy as np
import pytest

import repro.dataset.cache as cache_mod
from repro.dataset import MiraDataset
from repro.errors import ParseError
from repro.table.arena import detach_all

DAYS, SEED = 6.0, 2019


@pytest.fixture(autouse=True)
def synth_cache_dir(tmp_path, monkeypatch):
    """Throwaway synthesis cache + fresh arena attachments per test."""
    directory = tmp_path / "synth-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    detach_all()
    yield directory
    detach_all()


def _pair():
    ram = MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="ram")
    mmap = MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="mmap")
    return ram, mmap


class TestParity:
    def test_tables_and_summary_identical(self):
        ram, mmap = _pair()
        assert mmap.jobs._arena is not None
        assert ram.jobs._arena is None
        for name, table in ram._tables().items():
            assert mmap._tables()[name] == table, name
        assert json.dumps(ram.summary(), sort_keys=True) == json.dumps(
            mmap.summary(), sort_keys=True
        )

    def test_every_experiment_identical(self):
        from repro.experiments import all_experiments, run_experiment
        from repro.experiments.journal import result_to_json

        from repro.errors import ReproError

        ram, mmap = _pair()
        for experiment_id in all_experiments():
            try:
                a = result_to_json(run_experiment(experiment_id, ram))
            except (ReproError, ValueError) as error:
                # A short window starves some analyses (e.g. too few
                # interruption intervals); mmap must starve identically.
                with pytest.raises(type(error), match=re.escape(str(error)[:40])):
                    run_experiment(experiment_id, mmap)
                continue
            b = result_to_json(run_experiment(experiment_id, mmap))
            assert json.dumps(a, sort_keys=True) == json.dumps(
                b, sort_keys=True
            ), experiment_id

    def test_numeric_columns_are_lazy_views(self):
        _, mmap = _pair()
        col = mmap.jobs["start_time"]
        assert isinstance(col, np.memmap)
        assert not col.flags.writeable

    def test_load_mmap_matches_load_ram(self, tmp_path):
        ram, _ = _pair()
        directory = tmp_path / "saved"
        ram.save(directory)
        loaded_ram = MiraDataset.load(directory, mode="ram")
        loaded_mmap = MiraDataset.load(directory, mode="mmap")
        assert loaded_mmap.jobs._arena is not None
        for name, table in loaded_ram._tables().items():
            assert loaded_mmap._tables()[name] == table, name


class TestDescriptorHandOff:
    def test_pickled_dataset_is_tiny_and_round_trips(self):
        ram, mmap = _pair()
        blob = pickle.dumps(mmap)
        assert len(blob) < 4 * len(pickle.dumps(ram.spec)) + 4096
        assert len(blob) < len(pickle.dumps(ram)) / 10
        restored = pickle.loads(blob)
        assert restored.summary() == mmap.summary()

    def test_engine_pool_equivalence(self):
        """A 2-worker suite over mmap matches the in-process RAM suite."""
        from repro.experiments import run_suite
        from repro.experiments.journal import result_to_json

        ram, mmap = _pair()
        ids = ["e01", "e03"]
        solo = run_suite(ram, ids, jobs=1)
        pooled = run_suite(mmap, ids, jobs=2)
        for experiment_id in ids:
            assert solo.outcome(experiment_id).status == "ok"
            assert pooled.outcome(experiment_id).status == "ok"
            a = result_to_json(solo.outcome(experiment_id).result)
            b = result_to_json(pooled.outcome(experiment_id).result)
            assert json.dumps(a, sort_keys=True) == json.dumps(
                b, sort_keys=True
            ), experiment_id

    def test_serve_worker_equivalence(self):
        """A forked serve worker attaches the arena and answers
        identically to the parent's in-RAM dataset."""
        from repro.serve.workers import WorkerSlot

        ram, mmap = _pair()
        slot = WorkerSlot(mmap)
        try:
            verdict = slot.run(
                {"mode": "summary", "deadline_s": 60.0, "request_id": "t"},
                budget_s=60.0,
            )
        finally:
            slot.close()
        assert verdict.kind == "done"
        assert verdict.payload["outcome"] == "ok"
        assert verdict.payload["result"]["summary"] == ram.summary()


class TestInvalidation:
    def test_arena_cache_hit_and_stale_rejection(self, synth_cache_dir):
        MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="mmap")
        arenas = list(synth_cache_dir.glob("*.arena"))
        assert len(arenas) == 1
        # Second synthesize attaches the same arena (no new files).
        MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="mmap")
        assert list(synth_cache_dir.glob("*.arena")) == arenas
        # A corrupted arena is rejected and rebuilt, not served.
        detach_all()
        arenas[0].write_bytes(b"garbage")
        rebuilt = MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="mmap")
        assert rebuilt.jobs._arena is not None
        assert rebuilt.jobs.n_rows > 0

    def test_stale_arena_replaced_on_source_change(self, tmp_path):
        ram, _ = _pair()
        directory = tmp_path / "saved"
        ram.save(directory)
        MiraDataset.load(directory, mode="mmap")
        cache_dir = directory / ".repro-cache"
        before = set(cache_dir.glob("*.arena"))
        assert len(before) == 1
        # Edit a source CSV (append the last data row with a fresh
        # job_id): the content fingerprint changes, so the old arena
        # must be pruned and rebuilt.
        jobs_csv = directory / "jobs.csv"
        lines = jobs_csv.read_text().splitlines()
        header = lines[0].split(",")
        fields = lines[-1].split(",")
        id_at = header.index("job_id")
        fields[id_at] = str(
            max(int(line.split(",")[id_at]) for line in lines[1:]) + 1
        )
        jobs_csv.write_text("\n".join(lines + [",".join(fields)]) + "\n")
        os.utime(jobs_csv, ns=(1, 1))
        detach_all()
        MiraDataset.load(directory, mode="mmap")
        after = set(cache_dir.glob("*.arena"))
        assert len(after) == 1
        assert after != before


class TestOneEntry:
    def test_mmap_then_ram_share_one_file(self, synth_cache_dir):
        mmap = MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="mmap")
        ram = MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="ram")
        assert [p.suffix for p in synth_cache_dir.iterdir()] == [".arena"]
        for name, table in mmap._tables().items():
            assert ram._tables()[name] == table, name
        assert ram.incidents == mmap.incidents

    def test_ram_hit_is_plain_owned_memory(self):
        from repro.table import arena as arena_mod

        MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="ram")  # store
        detach_all()
        attached = dict(arena_mod._ATTACHED)
        hit = MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="ram")
        assert arena_mod._ATTACHED == attached
        for name, table in hit._tables().items():
            assert table._arena is None, name
            for column in table.column_names:
                values = table[column]
                assert not isinstance(values, np.memmap), (name, column)
                assert values.flags.writeable, (name, column)
        assert arena_mod._ATTACHED == attached
        # Pickles by value: the blob carries the data, not a descriptor.
        assert len(pickle.dumps(hit.jobs)) > 10 * 1024


class TestModeValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="turbo")

    def test_mmap_requires_cacheable_synthesis(self):
        with pytest.raises(ValueError):
            MiraDataset.synthesize(n_days=DAYS, seed=SEED, mode="mmap", cache=False)

    def test_mmap_load_requires_cache(self, tmp_path):
        ram, _ = _pair()
        directory = tmp_path / "saved"
        ram.save(directory)
        with pytest.raises(ValueError):
            MiraDataset.load(directory, mode="mmap", cache=False)


class TestFleetScale:
    def test_scale_one_is_default_fingerprint(self):
        fp_default = cache_mod.fingerprint_synthesis(
            MiraDataset.synthesize(n_days=DAYS, seed=SEED).spec, DAYS, SEED
        )
        fp_explicit = cache_mod.fingerprint_synthesis(
            MiraDataset.synthesize(n_days=DAYS, seed=SEED, scale=1).spec,
            DAYS,
            SEED,
            1.0,
        )
        assert fp_default == fp_explicit

    def test_scaled_fleet_spec_and_volume(self):
        base = MiraDataset.synthesize(n_days=DAYS, seed=SEED)
        fleet = MiraDataset.synthesize(n_days=DAYS, seed=SEED, scale=3)
        assert fleet.spec.name == f"{base.spec.name}x3"
        assert fleet.spec.rack_rows == base.spec.rack_rows * 3
        assert fleet.spec.n_midplanes == base.spec.n_midplanes * 3
        # Event volume scales roughly linearly with the fleet.
        assert fleet.ras.n_rows > 2.0 * base.ras.n_rows

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            MiraDataset.synthesize(n_days=DAYS, seed=SEED, scale=1.5)
        with pytest.raises(ValueError, match="positive integer"):
            MiraDataset.synthesize(n_days=DAYS, seed=SEED, scale=0)
        with pytest.raises(ValueError, match="rack rows"):
            MiraDataset.synthesize(n_days=DAYS, seed=SEED, scale=6)
