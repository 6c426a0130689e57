"""Print BENCHMARK.json as the benchmark's own tables define it.

    python3 perfbench/manifest.py > BENCHMARK.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bench  # noqa: E402

print(json.dumps(bench.manifest(), indent=2))
