"""Golden outputs: every file the pipeline's commands write at a small
config, pinned by its sha256.

``synth``, ``analyze``, ``compare --emit-curve``, ``fit-z0 --emit-curve`` and
``theory`` (Drude and ``--material``) run through click's ``CliRunner`` at
``test_cli.FAST_CONFIG`` (2 scans of 120 points, a 40-node theory cache,
seed 11). Criterion 10 checks that one commit reproduces its own bytes; this
test checks that a refactor which claims byte-identical outputs reproduces
the bytes of the commit before it, and it passes on both.

A documented re-baseline updates the pins: a change that moves the outputs
on purpose (the exact sphere-plane electrostatics in the forward model, an
inverse-variance z0, a fitted residual potential) or a numpy upgrade that
moves their last bits. It lists the old and new digests in CHANGES.md.
"""

import hashlib

from click.testing import CliRunner

from casimirlab.cli import main
from test_cli import FAST_CONFIG, TABLE

GOLDEN = {
    "analysis/mean_curve.csv": "ac2aada8fd6a2a19ed4afe57645e82f43d43d6c11c183d4dcf821eb723e3a8c6",
    "analysis/results.json": "e9383992ed5f0077aec6fe98813b2f03076f0480dc06335b59ba0cc26ac17392",
    "campaign/cal_00.csv": "5d58cefe40427e7ec95642f95e56b756f51282e8e21d666c5ab345c51c985e84",
    "campaign/cal_01.csv": "4570b2fd4a5eb114b0e4ba3ef2e45716a08d3ca8c8766f2cdc80592ff78cc6b4",
    "campaign/cal_02.csv": "f181ab3485dc515cab2dea925ef85b7ce779d0a66f66b2ccbd051ed5d247d157",
    "campaign/cal_03.csv": "8d76140f74d36abff999443b5c36a50a658fcd49fbcfffc563176a63b876590f",
    "campaign/cal_04.csv": "1fb314c076ba9e8f39599840a078dda0ff4e462f071f84fdf09faecae0231930",
    "campaign/cal_05.csv": "968b1ffad5357066a98046ada9fa49e7130e5408369a47303ffbe6fa5ed9ad3e",
    "campaign/manifest.txt": "c83e27446f385236cb689a24a1a3114a7eff19132055106bd28be458882def28",
    "campaign/scan_000.csv": "8ca7d56d5440341a137d5c414846e8758837ad777b550a7dcf0493ea73fafe0b",
    "campaign/scan_001.csv": "245bc6cffbc9cef6c88d4ae9c4191bd2a283d33a9c90a9532472bf6384356e6f",
    "campaign/truth.json": "afd603a0d4eed57cc7cdbfab2827ef042fc242445beca98e2002daebf831fdcc",
    "compare.curve.csv": "041bede4c3b601ef557aea9eeb50305f53009bdc60c09ca2d5d888f62b640482",
    "compare.json": "5750acc85d9127070a42a23f7dc829ac313e443d6cee6b38f188c4e698ddef58",
    "fit_z0.curve.csv": "dc310db595dc5f0db017d5dc60ff602338ead0b7c0e0c1e22c34c413b549ba60",
    "fit_z0.json": "754ab1e5701baba77d807c60fedf3adb971519a46875f18fdd2d22d0545a94c9",
    "theory_drude.csv": "9b8d4c79d95bb1d28d0c5a450fc42c87d5cea8ab0d986b07ee2d6790e5a8327b",
    "theory_table.csv": "df99262e5b84f4f38e236bc763e3b2cb1f4ec3ab68b9df3d16999902b02b697a",
}


def commands(d):
    """The argument lists, in order, each reading what the ones before wrote."""
    cfg = str(d / "run.cfg")
    campaign, analysis = str(d / "campaign"), d / "analysis"
    return [
        ["synth", "--config", cfg, "--out", campaign],
        ["analyze", "--scans", campaign, "--config", cfg, "--out", str(analysis)],
        ["compare", "--curve", str(analysis / "mean_curve.csv"), "--emit-curve",
         "--config", cfg, "--out", str(d / "compare.json")],
        ["fit-z0", "--scan", str(d / "campaign" / "cal_00.csv"), "--emit-curve",
         "--config", cfg, "--out", str(d / "fit_z0.json")],
        ["theory", "--config", cfg, "--out", str(d / "theory_drude.csv")],
        ["theory", "--material", TABLE, "--config", cfg, "--out", str(d / "theory_table.csv")],
    ]


def written_digests(d):
    """{path relative to d: sha256} of every file the commands write into d."""
    (d / "run.cfg").write_text(FAST_CONFIG)
    runner = CliRunner()
    for args in commands(d):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args[0], result.output)
    return {p.relative_to(d).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.rglob("*")) if p.is_file() and p.name != "run.cfg"}


def test_every_written_file_matches_its_pinned_digest(tmp_path):
    assert written_digests(tmp_path) == GOLDEN
