"""Set-up probe: import ``wgflow`` and parse and validate input files.

Usage: ``python3 setup_child.py FILE...``.  Run configs go through
``ExperimentConfig.from_json_dict`` (which issues the convexity certificate),
transport instances through ``DiscreteInstance.from_json_dict``.  Stops
before any step is taken.
"""

import json
import sys

from wgflow.cli import ExperimentConfig
from wgflow.transport import DiscreteInstance

for path in sys.argv[1:]:
    with open(path) as fh:
        spec = json.load(fh)
    if "sources" in spec:
        DiscreteInstance.from_json_dict(spec)
    else:
        ExperimentConfig.from_json_dict(spec)
