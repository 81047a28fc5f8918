"""Smoke test of tools/ab_scan.py, on whose byte check every claim that a
change leaves the scan outputs identical rests."""
import importlib.util
import json
import re
import shutil
from pathlib import Path

import scsqkd

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(scsqkd.__file__).parent

_spec = importlib.util.spec_from_file_location("ab_scan", ROOT / "tools" / "ab_scan.py")
ab_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_scan)

# One distance, both modes, a 2x2 grid and the Monte Carlo report: every
# output file, in a few ms per scan.
TINY = {
    "channel": {"alpha_f": 0.2, "eta_d": 0.3, "p_d": 1e-9, "e_d": 0.04},
    "search": {"grid": [2, 2], "refine_rounds": 0},
    "scan": {"distance": [10, 10, 1], "blocks": ["1e12", "asymptotic"],
             "modes": ["improved", "baseline"]},
    "mc_validate": True, "mc_windows": 1000,
}


def test_ab_scan_checks_the_bytes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    argv = ["--config", str(config), "--pairs", "2"]
    assert ab_scan.main([str(PACKAGE), str(PACKAGE), *argv]) == 0
    out = capsys.readouterr().out
    assert "outputs identical: yes" in out
    # Each side's median with its quartiles, in ms.
    for side in ("a", "b"):
        line = re.search(rf"^{side} {re.escape(str(PACKAGE))}: (.*)$", out, re.M).group(1)
        assert re.fullmatch(r"median \d+\.\d\d ms \(q1 -?\d+\.\d\d, q3 \d+\.\d\d ms\)",
                            line), line
    # A copy whose scan.csv gains one character.
    changed = tmp_path / "changed"
    shutil.copytree(PACKAGE, changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "cli.py"
    source = cli.read_text()
    assert source.count("lines = [CSV_HEADER]") == 1
    cli.write_text(source.replace("lines = [CSV_HEADER]", "lines = [CSV_HEADER + ' ']"))
    assert ab_scan.main([str(PACKAGE), str(changed), *argv]) == 1
    out = capsys.readouterr().out
    assert "outputs that differ: scan.csv\n" in out
    assert "outputs identical: NO" in out
