"""The declarative analysis registry and the registry-driven CLI.

Pins the refactor's contracts: every CLI subcommand is backed by a
registered Analysis (and vice versa), every ``*Result`` dataclass
round-trips through the generic serializer, the CLI parses/--helps/runs
over all subcommands, and no module outside the session/pipeline layers
calls ``simulate(``/``build_graph(`` directly.
"""

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.cli import build_parser, main
from repro.core.serialize import SerializableResult
from repro.session import REGISTRY, all_analyses, get_analysis

SRC = Path(repro.__file__).resolve().parent

#: one tiny invocation per subcommand ("{tmp}" = a per-test output path)
SMOKE_ARGV = {
    "workloads": [],
    "breakdown": ["gzip", "--scale", "0.2", "--focus", "dl1"],
    "characterize": ["--workloads", "gzip", "--scale", "0.3"],
    "profile": ["gzip", "--scale", "0.3", "--fragments", "3"],
    "matrix": ["gzip", "--scale", "0.3"],
    "report": ["gzip", "--scale", "0.3", "-o", "{tmp}"],
    "sensitivity": ["gzip", "--scale", "0.2", "--dl1", "1,2",
                    "--windows", "64,80"],
    "phases": ["gzip", "--scale", "0.3", "--segment", "300"],
    "critical": ["gzip", "--scale", "0.2", "--top", "3"],
    "compare": ["gzip", "--scale", "0.2", "--after", "dl1_latency=4"],
    "multisim": ["gzip", "--scale", "0.2", "--focus", "dl1"],
    "selfprofile": ["gzip", "--scale", "0.2", "--jobs", "2",
                    "--approx", "4", "--no-cache"],
    "bench": ["--suite", "smoke", "--scale", "0.2", "-o", "{tmp}"],
    "ledger": ["list"],
    "serve": ["--port", "0", "--smoke"],
}


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def _argv(command, tmp_path):
    return [arg.replace("{tmp}", str(tmp_path / "out.html"))
            for arg in SMOKE_ARGV[command]]


def _subcommand_choices():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if hasattr(a, "choices") and a.choices)
    return set(action.choices)


class TestRegistryCompleteness:
    def test_every_subcommand_is_a_registered_analysis(self):
        assert _subcommand_choices() <= set(REGISTRY)

    def test_every_analysis_is_reachable_from_the_cli(self):
        assert set(REGISTRY) <= _subcommand_choices()

    def test_smoke_table_covers_the_registry(self):
        assert set(SMOKE_ARGV) == set(REGISTRY)

    def test_analyses_declare_names_help_and_results(self):
        for analysis in all_analyses():
            assert analysis.name and analysis.help
            assert analysis.result_type is not None
            assert dataclasses.is_dataclass(analysis.result_type)
            assert issubclass(analysis.result_type, SerializableResult)

    def test_declarations_name_their_implementing_modules(self):
        """The CLI lists subcommands from the declarations alone, so
        each one must say truly which module implements it."""
        from repro.session.registry import DECLARED

        assert [a.name for a in all_analyses()] == list(DECLARED)
        for analysis in all_analyses():
            assert type(analysis).__module__ == \
                DECLARED[analysis.name].module
            assert analysis.help == DECLARED[analysis.name].help

    def test_undeclared_analyses_cannot_register(self):
        from repro.session.registry import Analysis, register

        class Undeclared(Analysis):
            name = "undeclared"

        with pytest.raises(ValueError, match="not declared"):
            register(Undeclared)

    def test_get_analysis_resolves_names(self):
        assert get_analysis("breakdown").name == "breakdown"
        with pytest.raises(KeyError):
            get_analysis("nonsense")


class TestResultRoundTrips:
    @pytest.mark.parametrize("command", sorted(SMOKE_ARGV))
    def test_run_and_round_trip(self, command, tmp_path):
        """Each analysis runs on a tiny workload; its typed result
        survives to_json/from_json exactly; render returns text."""
        args = build_parser().parse_args([command] + _argv(command,
                                                           tmp_path))
        analysis = args.analysis
        session = analysis.make_session(args)
        result = analysis.run(session, args)
        assert isinstance(result, analysis.result_type)
        clone = analysis.result_type.from_json(result.to_json())
        assert clone == result
        rendered = analysis.render(result, args)
        assert isinstance(rendered, str) and rendered

    def test_from_json_rejects_other_result_types(self, tmp_path):
        args = build_parser().parse_args(["workloads"])
        result = args.analysis.run(None, args)
        wrong = get_analysis("breakdown").result_type
        with pytest.raises(TypeError):
            wrong.from_json(result.to_json())


class TestCliSmoke:
    @pytest.mark.parametrize("command", sorted(SMOKE_ARGV))
    def test_help_exits_cleanly(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert command in capsys.readouterr().out or command == "workloads"

    @pytest.mark.parametrize("command", sorted(SMOKE_ARGV))
    def test_tiny_run_succeeds(self, command, capsys, tmp_path):
        assert main([command] + _argv(command, tmp_path)) == 0
        assert capsys.readouterr().out.strip()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "repro-icost" in out and repro.__version__ in out


class TestSessionLint:
    """No new direct simulate()/build_graph() calls may appear outside
    the layers that own them (uarch/graph/pipeline/session).

    Module-qualified calls (``fastcore.simulate(...)``) are exempt by
    design: naming the owning module is the visible marker for the rare
    deliberate bypass, e.g. the bench suite timing the raw simulator
    cores where the session's memoisation would time the cache instead.
    """

    PATTERN = re.compile(r"(^|[^.\w])(simulate|build_graph)\(")
    ALLOWED_TOP_DIRS = {"uarch", "graph", "pipeline", "session"}

    def test_no_direct_calls_outside_owning_layers(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC)
            if rel.parts[0] in self.ALLOWED_TOP_DIRS:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(),
                                          start=1):
                if line.lstrip().startswith("#"):
                    continue
                if self.PATTERN.search(line):
                    offenders.append(f"src/repro/{rel}:{lineno}: "
                                     f"{line.strip()}")
        assert not offenders, (
            "direct simulate()/build_graph() calls outside "
            "uarch/graph/pipeline/session -- route through "
            "AnalysisSession instead:\n" + "\n".join(offenders))
