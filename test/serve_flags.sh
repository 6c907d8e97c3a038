#!/bin/sh
# Usage: serve_flags.sh T1000_CLI
#
# The serve tier's flags are checked once, by Server.validate (from
# Server.create, or from `supervise` before it starts a replica) and
# Supervisor.create: each bad value below must exit 2 and leave no
# socket, socket directory or log behind.
set -u
cli=$1
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
status=0
check() {
  code=0
  "$cli" "$@" > /dev/null 2>&1 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "t1000_cli $*: exit $code, expected 2" >&2
    status=1
  fi
  left=$(ls -A "$d")
  if [ -n "$left" ]; then
    echo "t1000_cli $*: left $left behind" >&2
    rm -rf "${d:?}"/*
    status=1
  fi
}
check serve --queue 0 --socket "$d/serve.sock"
check serve --deadline=-5 --socket "$d/serve.sock"
check serve --max-steps 0 --socket "$d/serve.sock"
check supervise --replicas 0 --socket-dir "$d/sup"
check supervise --queue 0 --socket-dir "$d/sup"
check supervise --deadline=-5 --socket-dir "$d/sup"
exit $status
