"""The JSON reports of ``verify_all`` at grids 5, 9 and 33, timestamp masked,
and the output of ``quadident list``, by SHA-256 digest: a change that moves
no number must keep every byte.

The digests depend on the floating-point results of the interpreter and of
numpy, so they are checked only under the versions that recorded them. A
change that moves values on purpose records new digests and says so.
"""

import hashlib
import platform

import numpy as np
import pytest

from quadident import cli
from quadident.ledger import render_json, verify_all

_RECORDED_WITH = ("3.11", "2.4.6")  # Python major.minor, numpy
_DIGESTS = {
    5: "5ca1c722a039b343393ccb69d6db3aba5c41a958da6138b4bfd5685fae19a067",
    9: "e7dbe125afa200714bf78d88d940899599d101facfff45a282609116187e7725",
    33: "0d09e80d9005b55582aa6bab1a00e6009d02113c20f0da3b5311776aeb734751",
}
_LIST_DIGEST = "d67b8df83bcb114ac13b77b6971aeca4abcfd9f0e4235ccf9b71d3293ef01d09"

_recorded_versions_only = pytest.mark.skipif(
    (".".join(platform.python_version_tuple()[:2]), np.__version__) != _RECORDED_WITH,
    reason=f"digests recorded with Python {_RECORDED_WITH[0]}.x and numpy {_RECORDED_WITH[1]}")


@_recorded_versions_only
@pytest.mark.parametrize("grid", sorted(_DIGESTS))
def test_report_bytes_match_the_recorded_digest(grid):
    report = verify_all(grid)._replace(timestamp="")
    assert hashlib.sha256(render_json(report).encode()).hexdigest() == _DIGESTS[grid]


@_recorded_versions_only
def test_list_output_matches_the_recorded_digest(capsys):
    assert cli.main(["list"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _LIST_DIGEST
