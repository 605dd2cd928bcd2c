import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import ab  # noqa: E402


def test_ab_reports_the_fields_that_moved():
    parent = ('{"lambda": 2.0, "eigenvalues": [0.0, 1.0, 4.0], "sound": true, '
              '"grid": [{"t": 1, "max_mass": 1.0}, {"t": 4, "max_mass": 1.0}]}')
    change = ('{"lambda": 2.0000000000000004, "eigenvalues": [1e-16, 1.0, 4.0], "sound": false, '
              '"grid": [{"t": 1, "max_mass": 1.0000000000000002}, {"t": 4, "max_mass": 1.0}]}')
    fields = {}
    lines = ab._field_lines("cmd", [(0, parent), (1, change)], fields)
    assert lines == [
        "moved\tcmd\t.lambda\t2.22e-16",
        "moved\tcmd\t.eigenvalues[]\t2.50e-17",  # against the list's largest, 4.0
        "moved\tcmd\t.grid[].max_mass\t2.22e-16",
        "changed\tcmd\texit code\t0 -> 1",
        "changed\tcmd\t.sound\ttrue -> false",
    ]
    ab._field_lines("cmd2", [(0, parent), (0, change.replace("1e-16", "0.0"))], fields)
    assert fields[".lambda"][0] == 2 and fields[".eigenvalues[]"][0] == 1
    # a stdout that is not JSON, or JSON with other keys, is named as a whole
    for other in ("error", '{"lambda": 2.0}'):
        assert ab._field_lines("c", [(0, parent), (0, other)], {}) == [
            "changed\tc\tstdout\tnot two JSON objects with the same keys"]
