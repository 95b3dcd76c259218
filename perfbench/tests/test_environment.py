import os

from perfbench import environment


def test_blas_threads_are_capped_at_the_limit_and_never_raised(monkeypatch):
    for var in environment.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "64")
    assert environment.pin_blas_threads(2) == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert environment.pin_blas_threads(2) == 1
    assert {os.environ[v] for v in environment.BLAS_THREAD_VARS} == {"1"}


def test_describe_names_the_machine_and_libraries():
    info = environment.describe()
    assert info["nproc"] >= 1
    for key in ("cpu_model", "python", "numpy", "scipy", "blas_vendor", "blas_version"):
        assert info[key]
