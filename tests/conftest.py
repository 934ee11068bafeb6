import json
import os
import shutil

import pytest

import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus():
    from quickray.corpus import generate_corpus

    return generate_corpus(800, seed=7)


@pytest.fixture(scope="session")
def built_index(small_corpus, tmp_path_factory):
    """One shared 800-doc build for all engine tests, on the Ray
    executor: batches of 256 rows keep it a multi-batch build, the
    production path (800 rows would otherwise fit one tokenizer batch
    and build locally), and 16 merge groups give it 16 segment files
    (the default layout would give this corpus one)."""
    from quickray.build import build_index

    out = str(tmp_path_factory.mktemp("idx") / "build")
    build_index(small_corpus, out, tokenizer_batch_size=256, num_shards=16)
    yield out
    shutil.rmtree(out, ignore_errors=True)


@pytest.fixture(scope="session")
def oracle(small_corpus):
    from quickray.oracle import Oracle

    return Oracle(small_corpus)


@pytest.fixture
def flatten_calls(monkeypatch):
    """Row counts of every ``flatten_tokens`` call made in this process,
    patched where the build and the tokenizer look it up."""
    import quickray.build
    import quickray.tokenize

    calls = []
    real = quickray.tokenize.flatten_tokens

    def counting(content):
        calls.append(len(content))
        return real(content)

    for mod in (quickray.build, quickray.tokenize):
        monkeypatch.setattr(mod, "flatten_tokens", counting)
    return calls


@pytest.fixture
def rerun_one_group(flatten_calls):
    """``run(out, group, build)``: delete merge group ``group``'s segment
    file and the ``segments`` manifest entry of the finished build in
    ``out``, call ``build()`` and check that it merged that group only:
    no content tokenized in this process, the rerun's manifest summary
    names that group alone, and no other group file was rewritten.
    Returns what ``build()`` returns."""
    from quickray.schema import group_file

    def run(out, group, build):
        seg = os.path.join(out, "segments")
        man_path = os.path.join(out, "manifest.json")
        victim = group_file(group)
        kept = {
            f: os.stat(os.path.join(seg, f)).st_mtime_ns
            for f in os.listdir(seg) if f != victim
        }
        os.remove(os.path.join(seg, victim))
        with open(man_path) as f:
            man = json.load(f)
        del man["phases"]["segments"]
        with open(man_path, "w") as f:
            json.dump(man, f)
        del flatten_calls[:]
        res = build()
        assert flatten_calls == []
        with open(man_path) as f:
            rec = json.load(f)["phases"]["segments"]
        assert [g["mpart"] for g in rec["counters"]["groups"]] == [group]
        assert os.path.exists(os.path.join(seg, victim))
        assert {
            f: os.stat(os.path.join(seg, f)).st_mtime_ns for f in kept
        } == kept
        return res

    return run
