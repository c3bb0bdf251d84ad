#!/usr/bin/env bash
# Every CI gate, as .github/workflows/ci.yml runs them; the gates live in
# scripts/gates.py. `./scripts/ci.sh NAME ...` runs only the named gates.
exec python3 "$(dirname "$0")/gates.py" "$@"
