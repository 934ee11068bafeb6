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
    """One shared 800-doc build (salting active) for all engine tests,
    on the Ray executor: batches of 256 rows keep it a multi-batch
    build, the production path (800 rows would otherwise fit one
    tokenizer batch and build locally)."""
    from quickray.build import build_index

    out = str(tmp_path_factory.mktemp("idx") / "build")
    build_index(small_corpus, out, hot_df=300, num_salts=4,
                tokenizer_batch_size=256)
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
