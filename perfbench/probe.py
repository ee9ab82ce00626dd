"""One cold start: import hermitia and materialize the first input of a
workload, then print the monotonic clock.  The parent reads the payload's
kind from argv and the payload from stdin, and times from just before it
started this process."""

import json
import sys
import time

src, kind = sys.argv[1], sys.argv[2]
payload = sys.stdin.read()
sys.path.insert(0, src)
import hermitia  # noqa: E402

if kind == "builtin":
    hermitia.Manifest.from_json(hermitia.builtin(payload).to_json()).build()
elif kind == "manifest":
    hermitia.Manifest.from_json(payload).build()
else:
    hermitia.QuadraticLattice(json.loads(payload)["gram"])
print(time.clock_gettime(time.CLOCK_MONOTONIC))
