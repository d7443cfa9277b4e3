import importlib.util
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("startup_probe",
                                               _ROOT / "tools" / "startup_probe.py")
startup_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(startup_probe)

_SINGLE_EDGE = str(_ROOT / "src" / "fdgtool" / "fixtures" / "single_edge.json")


def test_each_checkout_gets_its_quartiles_and_imports(capsys):
    # The same checkout on both sides: two runs each, alternating.
    assert startup_probe.main([str(_ROOT), str(_ROOT), "-n", "2", "--",
                               "lp", "--solve", _SINGLE_EDGE]) == 0
    head, *sides = capsys.readouterr().out.splitlines()
    assert head == f"fdgtool lp --solve {_SINGLE_EDGE}: 2 runs per checkout, median (quartiles)"
    number = r"\d+\.\d{3}"
    stats = rf"{number} \({number}-{number}\)"
    assert len(sides) == 2
    for line in sides:
        assert re.fullmatch(rf"{re.escape(str(_ROOT))}: wall_s {stats}, peak_rss_mb {stats}, "
                            r"imported numpy 0/2, scipy\.optimize 0/2, scipy\.sparse 0/2",
                            line), line


def test_a_failing_command_stops_the_probe(capsys):
    assert startup_probe.main([str(_ROOT), str(_ROOT), "-n", "2", "--",
                               "lp", "--solve", "no-such-network.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: exit 2 in {_ROOT}: error: cannot read no-such-network.json")
    assert startup_probe._REPORT not in err


def test_summary_gives_the_median_and_quartiles():
    assert startup_probe.summary([1.0, 2.0]) == "1.500 (1.250-1.750)"
    assert startup_probe.summary([3, 1, 2, 5, 4]) == "3.000 (2.000-4.000)"
