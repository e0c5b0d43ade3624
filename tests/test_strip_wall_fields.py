"""Unit tests for scripts/strip_wall_fields.py, the wall-clock blanker the
crash-resume check diffs bench CSVs through.

Run directly (python3 tests/test_strip_wall_fields.py) or through ctest,
which registers it as `strip_wall_fields_py` when a Python interpreter is
found at configure time.
"""
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
from strip_wall_fields import strip  # noqa: E402

# bench_scale_sweep's interleaving: each pattern prints a `run` row, its
# `fct` rows and a `slice_cache` row, so from the second pattern on a
# `run` row follows the `slice_cache` header; the last table is a
# single-column `memory` table holding the process peak RSS.
SCALE_SWEEP = """\
# bench: scale sweep (incast / storage / ML collective)
table,pattern,flows,completed,sim_ms,wall_s
run,incast,144,144,4.000,0.06
table,fabric,load_pct,bucket,flows,p50_us,p99_us
fct,incast,100,10KB-100KB,144,1298.7,1451.3
table,pattern,mode,window,slices,peak_mb,demand_builds,prefetch_builds,evictions
slice_cache,incast,eager,16,16,0.0,0,15,0
run,storage,72,72,13.000,0.64
fct,storage,100,1MB-15MB,72,6915.3,10585.3
slice_cache,storage,eager,16,16,0.0,0,15,0
run,ml_collective,896,896,30.000,2.35
table,engine,racks,flows,completed,sim_ms,wall_s,events,p50_us
engine_sweep,packet,24,1832,1483,12.000,4.99,21875735,8401.7
# engine=fluid
engine_sweep,fluid,24,1832,1832,11.500,0.00,134,3849.3
table,k,racks,hosts,construct_s,flows,completed,sweep_wall_s,voq_mb,table_peak_mb
scale_probe,12,24,144,0.00,11,11,0.04,0.05,0.1
table,peak_rss_mb
memory,10.4
# peak RSS 10.4 MB
"""


def stripped(text):
    return list(strip(text.splitlines(keepends=True)))


class StripWallFieldsTest(unittest.TestCase):
    def test_scale_sweep_interleaving(self):
        out = stripped(SCALE_SWEEP)
        # Every run row loses its wall_s, including the ones printed after
        # the slice_cache header.
        self.assertIn("run,incast,144,144,4.000,", out)
        self.assertIn("run,storage,72,72,13.000,", out)
        self.assertIn("run,ml_collective,896,896,30.000,", out)
        # Rows of tables without wall columns are untouched, wherever they
        # fall.
        self.assertIn("slice_cache,storage,eager,16,16,0.0,0,15,0", out)
        self.assertIn("fct,storage,100,1MB-15MB,72,6915.3,10585.3", out)
        # Wall columns are found by name in every table.
        self.assertIn("engine_sweep,packet,24,1832,1483,12.000,,21875735,8401.7", out)
        self.assertIn("engine_sweep,fluid,24,1832,1832,11.500,,134,3849.3", out)
        self.assertIn("scale_probe,12,24,144,,11,11,,0.05,0.1", out)
        self.assertIn("memory,", out)
        # Headers and notes pass through; the peak RSS note is dropped.
        self.assertIn("table,pattern,flows,completed,sim_ms,wall_s", out)
        self.assertIn("# engine=fluid", out)
        self.assertNotIn("# peak RSS 10.4 MB", out)

    def test_runs_differing_only_in_wall_clock_strip_identically(self):
        other = (SCALE_SWEEP.replace("0.64", "0.59").replace("2.35", "2.41")
                 .replace("memory,10.4", "memory,10.3")
                 .replace("# peak RSS 10.4 MB", "# peak RSS 10.3 MB"))
        self.assertNotEqual(other, SCALE_SWEEP)
        self.assertEqual(stripped(other), stripped(SCALE_SWEEP))

    def test_simulation_change_survives(self):
        other = SCALE_SWEEP.replace("run,storage,72,72,13.000", "run,storage,72,71,13.000")
        self.assertNotEqual(stripped(other), stripped(SCALE_SWEEP))

    def test_rows_before_any_header_pass_through(self):
        self.assertEqual(stripped("orphan,1,2\n"), ["orphan,1,2"])


if __name__ == "__main__":
    unittest.main()
