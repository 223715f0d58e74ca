"""``import weylkit`` loads submodules on first use, and each CLI command imports only its own layers.

Each import check runs in a fresh interpreter, since this test process has
already imported every module.  The last test pins the public names.
"""

import subprocess
import sys
import textwrap

# weylkit.__all__, so that a change to the public surface shows in the diff.
PUBLIC_NAMES = (
    "DEFAULT_TOLERANCES", "DomainError", "GammaTable", "ParseError", "QuantumChannel", "ShapeError",
    "Tolerances", "ValidationError", "VerifyReport", "WeylBasis", "WeylFormTerm", "WeylIndex",
    "WeylkitError", "apply_channel", "basis_ket", "channel_from_dilation", "channel_to_json",
    "channels_equal", "choi_matrix", "choi_to_json", "clock_matrix", "coefficients_to_json",
    "commutator_in_basis", "decompose", "env_gram", "evolve_density", "evolve_pure",
    "frobenius_distance", "gamma_to_json", "gram_matrix", "is_trace_preserving", "json_to_channel",
    "json_to_coefficients", "json_to_gamma", "json_to_matrix", "json_to_vector", "kraus_mix",
    "make_isometry", "matrix_to_json", "omega", "partial_trace_env", "reconstruct",
    "replace_tolerance", "run_verification", "shift_matrix", "unitality_deficit",
    "validate_density_matrix", "validate_ket", "vector_to_json", "weyl_basis", "weyl_channel",
    "weyl_element", "weyl_form_of_joint",
)


def run_python(code):
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_basis_command_leaves_verify_channels_and_dilation_unloaded(tmp_path):
    out = tmp_path / "basis.json"
    loaded = run_python(
        f"""
        import sys
        from weylkit.cli import run
        assert run(["basis", "--d", "2", "--out", {str(out)!r}]) == 0
        print(sorted(m for m in sys.modules if m.startswith("weylkit.")))
        """
    )
    for name in ("weylkit.verify", "weylkit.channels", "weylkit.dilation", "weylkit.rand"):
        assert repr(name) not in loaded
    assert "'weylkit.weyl'" in loaded
    assert out.read_text(encoding="utf-8").startswith('{"d": 2, "order": "l-major", "elements": [')


def test_bare_import_loads_nothing_and_resolves_every_name():
    run_python(
        """
        import sys
        import weylkit
        assert not [m for m in sys.modules if m.startswith("weylkit.")]
        assert weylkit.__version__ == "0.1.0"
        assert weylkit.QuantumChannel.__module__ == "weylkit.channels"
        assert weylkit.channels is sys.modules["weylkit.channels"]
        assert weylkit.rand.random_gamma is sys.modules["weylkit.rand"].random_gamma
        names = dir(weylkit)
        assert {"QuantumChannel", "weyl_basis", "verify", "weyl", "__version__"} <= set(names)
        assert set(weylkit.__all__) <= set(names)

        namespace = {}
        exec("from weylkit import *", namespace)
        assert set(weylkit.__all__) <= set(namespace)
        assert namespace["weyl_basis"] is sys.modules["weylkit.weyl"].weyl_basis

        try:
            weylkit.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("unknown attribute resolved")
        """
    )


def test_public_names_are_pinned():
    import weylkit

    assert sorted(weylkit.__all__) == sorted(PUBLIC_NAMES)
