#!/bin/sh
# Lint gate: ruff (style, incl. scripts/) + mypy (strict types on
# repro.analysis/repro.trace/repro.core/repro.server) + the repo's own
# plan linter over the shipped examples.
#
# ruff and mypy are optional dev tools (`pip install -e .[lint]`); when one
# is missing, its step is SKIPPED with a notice instead of failing, so the
# script stays usable in offline environments.  The plan-lint step only
# needs the repo itself and always runs.
#
# Usage: scripts/lint.sh [--fast]   (--fast skips the example plan-lint)

set -u
cd "$(dirname "$0")/.."

failures=0

if command -v ruff >/dev/null 2>&1; then
    echo "==> ruff check"
    ruff check src tests examples scripts || failures=$((failures + 1))
else
    echo "==> ruff not installed; SKIPPED (pip install -e .[lint])"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "==> mypy (strict: repro.analysis, repro.trace, repro.core incl." \
         "repro.core.kernels, repro.server)"
    mypy || failures=$((failures + 1))
else
    echo "==> mypy not installed; SKIPPED (pip install -e .[lint])"
fi

if [ "${1:-}" != "--fast" ]; then
    echo "==> plan lint over examples/"
    for script in examples/*.py; do
        echo "    $script"
        PYTHONPATH=src python -m repro lint "$script" >/dev/null \
            || { echo "    FAILED: $script"; failures=$((failures + 1)); }
    done
fi

if [ "$failures" -ne 0 ]; then
    echo "lint: $failures step(s) failed"
    exit 1
fi
echo "lint: ok"
