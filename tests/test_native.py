"""The one native-kernel loader (:mod:`repro.native`).

Both C kernels -- the graph sweep and the simulator core -- load through
:class:`NativeKernel`.  This suite pins what the loader owes both: the
library name changes with the source *and* the compiler flags, a
compile prunes the libraries of other digests, a process compiles and
loads at most once, a failed compile keeps its
reason and warns once, the registry re-arms and reports every kernel,
and both fallback warnings keep their exact text.
"""

import os

import pytest

from repro import native
from repro.graph import engine
from repro.uarch import fastcore

SOURCE = "long repro_native_probe(void) { return 42; }\n"


def _bind(lib):
    return lib.repro_native_probe


@pytest.fixture
def registry(monkeypatch, tmp_path):
    """An empty kernel registry and a private temp directory, so probe
    kernels neither join the process's registry nor touch the shared
    temp directory."""
    monkeypatch.setattr(native, "KERNELS", [])
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    return native.KERNELS


def _probe(flags=("-O2",), source=SOURCE, env_var="REPRO_TEST_NO_NATIVE"):
    return native.NativeKernel(
        "probe", source, flags, env_var=env_var, stem="repro-probe-kernel",
        bind=_bind, warning="warning: probe unavailable ({reason})")


class TestLibraryPath:
    def test_flags_are_part_of_the_library_digest(self, registry):
        o2, o3 = _probe(("-O2",)), _probe(("-O3",))
        assert o2.lib_path() != o3.lib_path()
        assert _probe(("-O2",)).lib_path() == o2.lib_path()

    def test_source_is_part_of_the_library_digest(self, registry):
        assert _probe().lib_path() \
            != _probe(source=SOURCE + "/* edited */\n").lib_path()

    def test_one_source_two_flag_sets_compile_two_libraries(self, registry):
        o2, o3 = _probe(("-O2",)), _probe(("-O3",))
        if o2.load() is None:
            pytest.skip(f"no C compiler here: {o2.status()[1]}")
        assert os.path.exists(o2.lib_path())
        assert o3.load() is not None
        assert os.path.exists(o3.lib_path())
        assert o2.lib_path() != o3.lib_path()
        assert o2.fn() == o3.fn() == 42

    def test_a_compile_prunes_the_other_digests(self, registry, tmp_path):
        o2, o3 = _probe(("-O2",)), _probe(("-O3",))
        other = tmp_path / "repro-other-kernel-0123456789abcdef-0.so"
        other.write_bytes(b"")  # another stem is left alone
        if o2.load() is None:
            pytest.skip(f"no C compiler here: {o2.status()[1]}")
        o3.load()
        own = os.path.basename(o3.lib_path())[:-len(".so")]
        assert sorted(os.listdir(tmp_path)) == sorted(
            [other.name, own + ".so", own + ".c", own + ".so.lock"])
        assert o2.fn() == 42  # a loaded library outlives its file

    def test_a_library_pruned_before_it_loads_is_compiled_again(
            self, registry, monkeypatch):
        kernel = _probe()
        real_cdll, calls = native.ctypes.CDLL, []

        def cdll(path):
            calls.append(path)
            if len(calls) == 1:  # a concurrent compile prunes it first
                os.remove(path)
            return real_cdll(path)

        monkeypatch.setattr(native.ctypes, "CDLL", cdll)
        if kernel.load() is None and not calls:
            pytest.skip(f"no C compiler here: {kernel.status()[1]}")
        assert kernel.fn() == 42
        assert calls == [kernel.lib_path()] * 2
        assert kernel.status()[1] == f"loaded ({kernel.lib_path()})"

    def test_stems_name_the_library_files(self):
        base = os.path.basename
        assert base(engine.SWEEP_KERNEL.lib_path()).startswith(
            "repro-cp-kernel-")
        assert base(fastcore.SIM_KERNEL.lib_path()).startswith(
            "repro-sim-kernel-")
        assert engine.SWEEP_KERNEL.flags == ("-O3",)
        assert fastcore.SIM_KERNEL.flags == ("-O2",)


class TestLoad:
    def test_loads_at_most_once_until_reset(self, registry, monkeypatch):
        kernel = _probe()
        calls = []
        monkeypatch.setattr(kernel, "_open",
                            lambda: calls.append(1) or ("fn", "loaded (x)"))
        assert kernel.status() == (False, "not attempted")
        assert kernel.load() == "fn" and kernel.load() == "fn"
        assert calls == [1]
        assert kernel.status() == (True, "loaded (x)")
        kernel.reset()
        assert kernel.status() == (False, "not attempted")
        kernel.load()
        assert calls == [1, 1]

    def test_failed_compile_keeps_its_reason_and_warns_once(self, registry):
        kernel = _probe(source="this is not C\n")
        assert kernel.load() is None
        available, reason = kernel.status()
        assert not available
        assert reason.startswith("no working C compiler (cc: ")
        assert "gcc: " in reason and "clang: " in reason
        assert not os.path.exists(kernel.lib_path())  # nothing published
        assert kernel.fallback_warning() \
            == f"warning: probe unavailable ({reason})"
        assert kernel.fallback_warning() is None

    def test_a_missing_compiler_falls_through_to_the_next(
            self, registry, monkeypatch):
        monkeypatch.setattr(native, "COMPILERS",
                            ("repro-no-such-cc",) + native.COMPILERS)
        kernel = _probe()
        if kernel.load() is None:
            reason = kernel.status()[1]
            assert reason.startswith("no working C compiler "
                                     "(repro-no-such-cc: ")
            pytest.skip(f"no C compiler here: {reason}")
        assert kernel.fn() == 42

    def test_opt_out_is_a_reason_and_silent(self, registry, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_NO_NATIVE", "1")
        kernel = _probe()
        assert kernel.load() is None
        assert kernel.status() == (False,
                                   "disabled by REPRO_TEST_NO_NATIVE")
        assert kernel.fallback_warning() is None

    def test_registry_resets_and_reports_every_kernel(self, registry):
        good, bad = _probe(), _probe(source="not C either\n")
        assert registry == [good, bad]
        good.fn, good.reason = "fn", "loaded (x)"
        bad.load()
        warnings = native.fallback_warnings()
        assert warnings == [f"warning: probe unavailable "
                            f"({bad.status()[1]})"]
        assert native.fallback_warnings() == []  # once per process
        native.reset_all()
        assert good.status() == bad.status() == (False, "not attempted")
        assert not bad.warned


class TestWarningTexts:
    """Both warnings, byte for byte: scripts and CI grep for them."""

    @pytest.mark.parametrize("kernel, env_var, text", [
        (engine.SWEEP_KERNEL, "REPRO_ENGINE_NO_NATIVE",
         "warning: native C sweep kernel unavailable (boom); the batched "
         "engine is using the slower pure-Python fallback. Set "
         "REPRO_ENGINE_NO_NATIVE=1 to silence."),
        (fastcore.SIM_KERNEL, "REPRO_SIM_NO_NATIVE",
         "warning: native C simulator kernel unavailable (boom); the "
         "fast sim engine is using the reference core fallback. Set "
         "REPRO_SIM_NO_NATIVE=1 to silence."),
    ])
    def test_fallback_warning_text(self, kernel, env_var, text,
                                   monkeypatch):
        monkeypatch.delenv(env_var, raising=False)
        monkeypatch.setattr(kernel, "fn", None)
        monkeypatch.setattr(kernel, "reason", "boom")
        monkeypatch.setattr(kernel, "warned", False)
        assert kernel.env_var == env_var
        assert kernel.fallback_warning() == text

    def test_module_functions_are_the_kernel_methods(self):
        assert engine.native_kernel == engine.SWEEP_KERNEL.load
        assert engine.native_kernel_status == engine.SWEEP_KERNEL.status
        assert engine.native_fallback_warning \
            == engine.SWEEP_KERNEL.fallback_warning
        assert fastcore.sim_native_kernel == fastcore.SIM_KERNEL.load
        assert fastcore.sim_native_kernel_status \
            == fastcore.SIM_KERNEL.status
        assert fastcore.sim_native_fallback_warning \
            == fastcore.SIM_KERNEL.fallback_warning
