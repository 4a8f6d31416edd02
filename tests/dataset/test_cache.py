"""Columnar dataset cache: hits, invalidation, and poisoning guards."""

import pytest

import repro.dataset.cache as cache_mod
import repro.dataset.mira as mira_mod
from repro.dataset import MiraDataset
from repro.table import read_csv


@pytest.fixture()
def synth_cache_dir(tmp_path, monkeypatch):
    """Point the synthesis cache at a throwaway directory."""
    directory = tmp_path / "synth-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    return directory


@pytest.fixture()
def dataset_dir(tmp_path, synth_cache_dir):
    directory = tmp_path / "ds"
    MiraDataset.synthesize(n_days=3.0, seed=11, cache=False).save(directory)
    return directory


class _CsvSpy:
    """Counts how many CSVs a load actually parsed (0 == cache hit)."""

    def __init__(self, monkeypatch):
        self.calls = 0

        def spy(path, **kwargs):
            self.calls += 1
            return read_csv(path, **kwargs)

        monkeypatch.setattr(mira_mod, "read_csv", spy)


class TestDirectoryCache:
    def test_second_load_hits_cache(self, dataset_dir, monkeypatch):
        spy = _CsvSpy(monkeypatch)
        first = MiraDataset.load(dataset_dir)
        assert spy.calls == 4  # cold: all four logs parsed
        cache_files = list((dataset_dir / ".repro-cache").glob("*.arena"))
        assert len(cache_files) == 1
        second = MiraDataset.load(dataset_dir)
        assert spy.calls == 4  # warm: no parsing at all
        for attr in ("ras", "jobs", "tasks", "io"):
            assert getattr(first, attr) == getattr(second, attr)
        assert first.incidents == second.incidents
        assert (first.spec, first.n_days, first.seed) == (
            second.spec,
            second.n_days,
            second.seed,
        )

    def test_edit_invalidates_fingerprint(self, dataset_dir, monkeypatch):
        MiraDataset.load(dataset_dir)
        old_entry = next((dataset_dir / ".repro-cache").glob("*.arena"))
        jobs_csv = dataset_dir / "jobs.csv"
        lines = jobs_csv.read_text().splitlines()
        jobs_csv.write_text("\n".join(lines[:-1]) + "\n")  # drop last job
        spy = _CsvSpy(monkeypatch)
        reloaded = MiraDataset.load(dataset_dir)
        assert spy.calls == 4  # miss: content changed
        assert reloaded.jobs.n_rows == len(lines) - 2
        # the stale entry was pruned and replaced by the new fingerprint
        entries = list((dataset_dir / ".repro-cache").glob("*.arena"))
        assert len(entries) == 1 and entries[0] != old_entry

    def test_schema_bump_invalidates(self, dataset_dir, monkeypatch):
        MiraDataset.load(dataset_dir)
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", 999_999)
        spy = _CsvSpy(monkeypatch)
        MiraDataset.load(dataset_dir)
        assert spy.calls == 4  # miss: schema version participates in the key

    def test_refresh_cache_reparses_and_overwrites(self, dataset_dir, monkeypatch):
        MiraDataset.load(dataset_dir)
        entry = next((dataset_dir / ".repro-cache").glob("*.arena"))
        before = entry.stat().st_mtime_ns
        spy = _CsvSpy(monkeypatch)
        MiraDataset.load(dataset_dir, refresh_cache=True)
        assert spy.calls == 4
        assert entry.stat().st_mtime_ns > before

    def test_no_cache_never_writes(self, dataset_dir, monkeypatch):
        spy = _CsvSpy(monkeypatch)
        MiraDataset.load(dataset_dir, cache=False)
        MiraDataset.load(dataset_dir, cache=False)
        assert spy.calls == 8
        assert not (dataset_dir / ".repro-cache").exists()

    def test_corrupt_entry_is_a_miss_not_an_error(self, dataset_dir):
        loaded = MiraDataset.load(dataset_dir)
        entry = next((dataset_dir / ".repro-cache").glob("*.arena"))
        entry.write_bytes(b"definitely not an arena file")
        again = MiraDataset.load(dataset_dir)
        assert again.jobs == loaded.jobs


class TestLenientCache:
    def test_dirty_lenient_load_does_not_poison_cache(self, dataset_dir, monkeypatch):
        with (dataset_dir / "ras.csv").open("a") as handle:
            handle.write("garbled,row\n")
        degraded = MiraDataset.load(dataset_dir, lenient=True)
        assert degraded.ingestion and degraded.ingestion.n_quarantined == 1
        # nothing was cached: a later load must parse again
        spy = _CsvSpy(monkeypatch)
        MiraDataset.load(dataset_dir, lenient=True)
        assert spy.calls == 4
        cache_dir = dataset_dir / ".repro-cache"
        assert not cache_dir.exists() or not list(cache_dir.glob("*.arena"))

    def test_clean_lenient_load_is_cached_and_keeps_report(self, dataset_dir):
        first = MiraDataset.load(dataset_dir, lenient=True)
        assert first.ingestion is not None and not first.ingestion
        second = MiraDataset.load(dataset_dir, lenient=True)
        # the cache hit still reports lenient semantics: an empty report
        assert second.ingestion is not None and not second.ingestion
        assert first.ras == second.ras

    def test_strict_hit_after_lenient_store(self, dataset_dir):
        MiraDataset.load(dataset_dir, lenient=True)  # clean -> cached
        strict = MiraDataset.load(dataset_dir)
        assert strict.ingestion is None


class TestSynthesisCache:
    def test_synthesis_round_trips_through_cache(self, synth_cache_dir):
        cold = MiraDataset.synthesize(n_days=2.0, seed=5)
        entries = list(synth_cache_dir.glob("synth-*.arena"))
        assert len(entries) == 1
        warm = MiraDataset.synthesize(n_days=2.0, seed=5)
        for attr in ("ras", "jobs", "tasks", "io"):
            assert getattr(cold, attr) == getattr(warm, attr)
        assert cold.incidents == warm.incidents
        assert warm.ingestion is None

    def test_different_keys_coexist(self, synth_cache_dir):
        MiraDataset.synthesize(n_days=2.0, seed=5)
        MiraDataset.synthesize(n_days=2.0, seed=6)
        assert len(list(synth_cache_dir.glob("synth-*.arena"))) == 2

    def test_custom_params_bypass_cache(self, synth_cache_dir):
        from repro.scheduler import WorkloadParams

        MiraDataset.synthesize(
            n_days=2.0, seed=5, workload_params=WorkloadParams()
        )
        assert not list(synth_cache_dir.glob("synth-*.arena"))

    def test_refresh_cache_regenerates(self, synth_cache_dir):
        MiraDataset.synthesize(n_days=2.0, seed=5)
        entry = next(synth_cache_dir.glob("synth-*.arena"))
        before = entry.stat().st_mtime_ns
        MiraDataset.synthesize(n_days=2.0, seed=5, refresh_cache=True)
        assert entry.stat().st_mtime_ns > before


class TestFingerprint:
    def test_content_addressed_not_mtime_addressed(self, dataset_dir):
        import os

        fingerprint = cache_mod.fingerprint_directory(dataset_dir)
        stat = (dataset_dir / "ras.csv").stat()
        os.utime(dataset_dir / "ras.csv", ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        assert cache_mod.fingerprint_directory(dataset_dir) == fingerprint

    def test_any_source_file_participates(self, dataset_dir):
        fingerprint = cache_mod.fingerprint_directory(dataset_dir)
        (dataset_dir / "incidents.jsonl").write_text("")
        assert cache_mod.fingerprint_directory(dataset_dir) != fingerprint

    def test_fingerprints_pinned(self, tmp_path):
        """Fingerprints key --resume journals and serve result caches, so
        a cache-format change must leave them byte-for-byte alone."""
        from repro.bgq.machine import MIRA

        assert cache_mod.SCHEMA_VERSION == 2
        assert cache_mod.fingerprint_synthesis(MIRA, 3.0, 11) == (
            "2efc2e6eb591dea780f904478de2122ac0b8c06d1eafb9cc8496ca10ff31f4dc"
        )
        assert cache_mod.fingerprint_synthesis(MIRA, 6.0, 2019, 2.0) == (
            "013a65f005d52e378cf3a2787d3687461e3bc1ddc2d15cd285bc21007c695ca4"
        )
        assert cache_mod.fingerprint_synthesis(MIRA, 30.0, 1, 1.0, "google") == (
            "82de5d01493b9b73e5c45d5b5d3defdbc1881bd01d027ccf44483c8ab91ff7f4"
        )
        for name in ("ras.csv", "jobs.csv", "tasks.csv", "meta.jsonl"):
            (tmp_path / name).write_text(name + ",x\n1,2\n")
        assert cache_mod.fingerprint_directory(tmp_path) == (
            "197428def8f01e086733d78a864eadcd95d0fb3ea6172e75d6a7deed4b62c40f"
        )
