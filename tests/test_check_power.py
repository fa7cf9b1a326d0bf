"""Every CLI check must be able to fail.

Each case patches one defect into the package in-process and runs
cli.run_<subcommand>(default_config(subcommand)): the check named in the
case, or the tuple of checks it names, must then be the ones that fail.
A defect that no check sees yet is a strict xfail whose reason names the
check still missing, so the case turns into a failure, to be promoted,
once such a check exists.
"""

import dataclasses
import math

import pytest

from debye_screen import cli, decay, maxwell


def _scaled(factor):
    return lambda fn: lambda *args, **kwargs: factor * fn(*args, **kwargs)


def _scaled_values(factor):
    return lambda fn: lambda *args, **kwargs: [factor * v for v in fn(*args, **kwargs)]


def _scaled_mass(factor):
    def wrap(fn):
        def debye_mass_sq(*args, **kwargs):
            res = fn(*args, **kwargs)
            return dataclasses.replace(res, m_d_sq=factor * res.m_d_sq,
                                       lambda_d=res.lambda_d / math.sqrt(factor))
        return debye_mass_sq
    return wrap


# defect -> the (module, attribute, wrapper) patches that make it
DEFECTS = {
    "sine_transform_radial x1.01": [(maxwell, "sine_transform_radial", _scaled_values(1.01))],
    "lemma2 norms x1.1": [(decay, "_norms", _scaled(1.1))],
    "thermal_kernel_imag x2": [(decay, "thermal_kernel_imag", _scaled(2.0))],
    "debye_mass_sq x1.05": [(cli, "debye_mass_sq", _scaled_mass(1.05)),
                            (maxwell, "debye_mass_sq", _scaled_mass(1.05))],
}


def _missing(check):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"no check fails yet; missing: {check}")


CASES = [
    pytest.param("sine_transform_radial x1.01", "screening", "profile_vs_smeared_yukawa"),
    pytest.param("lemma2 norms x1.1", "decay", "lemma2_vs_reference"),
    pytest.param("debye_mass_sq x1.05", "polarization", "static_limit_identity"),
    pytest.param("thermal_kernel_imag x2", "decay", None, marks=_missing(
        "the kernel at the first separation, real axis against the shifted line")),
    pytest.param("debye_mass_sq x1.05", "screening", ("screening_rate", "profile_vs_smeared_yukawa"),
                 id="debye_mass_sq x1.05-screening-screening_rate,profile_vs_smeared_yukawa"),
    pytest.param("debye_mass_sq x1.05", "limits", "delta_reference_vs_other_route"),
]


@pytest.mark.parametrize("defect,subcommand,check", CASES)
def test_defect_fails_a_named_check(monkeypatch, defect, subcommand, check):
    for module, name, wrap in DEFECTS[defect]:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    art = getattr(cli, f"run_{subcommand}")(cli.default_config(subcommand))
    failed = [c["name"] for c in art.checks if not c["pass"]]
    assert failed, f"{defect} in {subcommand} fails no check"
    if check is not None:
        assert failed == (list(check) if isinstance(check, tuple) else [check])
