"""The one-shot reproduction report."""

from repro.report import generate_report


def test_report_all_checks_ok():
    text = generate_report()
    assert "MISMATCH" not in text
    assert "ALL CHECKS OK" in text
    # every section present
    for heading in (
        "Figure 1",
        "Figure 4",
        "Protocol zoo",
        "Lazy Caching needs",
        "Related methods",
    ):
        assert heading in text


def test_report_cli_exit_code(capsys, monkeypatch):
    """``repro reproduce`` prints the sweep and exits 1 on any MISMATCH
    (the sweep itself is stubbed; the test above runs the real one)."""
    import repro.report
    from repro.cli import main

    for text, code in (("# Reproduction report\nok", 0),
                       ("# Reproduction report\nMISMATCH", 1)):
        monkeypatch.setattr(repro.report, "generate_report", lambda t=text: t)
        assert main(["reproduce"]) == code
        assert capsys.readouterr().out == text + "\n"
