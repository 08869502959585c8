#!/usr/bin/env bash
# Runs a command that must be refused: passes only when it exits non-zero
# and its output (stdout + stderr) contains the expected text.
#
#   cli_expect_error.sh <expected-text> <command> [args...]
expected=$1
shift
output=$("$@" 2>&1)
status=$?
printf '%s\n' "$output"
if [ "$status" -eq 0 ]; then
    echo "FAIL: expected a non-zero exit status"
    exit 1
fi
if ! grep -qF -- "$expected" <<<"$output"; then
    echo "FAIL: output does not mention '$expected'"
    exit 1
fi
