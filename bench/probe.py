"""Set-up time of one fresh process: import convpow's CLI, load a spec, build it.

Usage: python3 probe.py <src dir> <spec.json>

Prints one JSON object, {"setup_s": seconds}.  Interpreter start-up is not
included; the import of convpow.cli (with numpy and jsonschema) is.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src, spec_path = sys.argv[1:3]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import convpow.cli  # noqa: F401 - the import is what is timed
    from convpow.zoo import MeasureSpec

    MeasureSpec.from_json(Path(spec_path).read_text()).build()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
