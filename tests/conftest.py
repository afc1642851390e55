import pytest

CURVES = {
    "ns": "m = 4\nmodulus = 10011\nkind = non-supersingular\na = 10\nb = 1\n",
    "ss": "m = 4\nmodulus = 10011\nkind = supersingular\na = 1\nb = 10\nc = 1\n",
    "ns-m2": "m = 2\nmodulus = 111\nkind = non-supersingular\na = 10\nb = 1\n",  # no generic point
}


@pytest.fixture
def curve_files(tmp_path):
    """Every test curve written to a file: name -> path."""
    for name, text in CURVES.items():
        (tmp_path / f"{name}.curve").write_text(text)
    return {name: str(tmp_path / f"{name}.curve") for name in CURVES}


@pytest.fixture
def announce(request):
    """Write a pass/fail line through the terminal reporter, which holds the
    real stdout from before pytest's capture kicked in."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(number: int, ok: bool, detail: str):
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] acceptance {number}: {detail}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)
        assert ok, f"acceptance criterion {number} failed: {detail}"

    return _announce
