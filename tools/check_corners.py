#!/usr/bin/env python3
"""Check a multi-corner listing corner by corner against dedicated runs.

Usage: check_corners.py SCALD_TV SPEC DESIGN.sdl [SCALD_TV ARGS...]

Runs `SCALD_TV DESIGN --corners SPEC -q ARGS` once, and for every corner
NAME of SPEC a dedicated `SCALD_TV DESIGN --corners NAME -q ARGS` run
(the corner's spec entry verbatim, so its factors carry over).  For each
corner it checks that

  - the MULTI-CORNER SUMMARY error count equals the number of
    violations the dedicated run lists;
  - when the corner is the reported WORST CORNER, its violation lines
    equal the dedicated run's, line for line;
  - its slack table (`--slack`) equals the dedicated run's, line for
    line.

The reference corner's listing is covered by the plain-prefix smoke.
Exits 0 on success, 1 with one message per mismatch.
"""

import subprocess
import sys

HEADER = "SETUP, HOLD AND MINIMUM PULSE WIDTH ERRORS"
SLACK = "SLACK REPORT (most critical first)"


def run(tv, design, spec, extra, slack=False):
    args = [tv, design, "--corners", spec, "-q"] + extra
    if slack:
        args.append("--slack")
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode not in (0, 2):
        sys.exit("%s exited %d: %s" % (" ".join(args), p.returncode, p.stderr))
    return p.stdout.splitlines()


def following(lines, i):
    """The non-blank lines after line [i]."""
    out = []
    i += 1
    while i < len(lines) and lines[i].strip():
        out.append(lines[i])
        i += 1
    return out


def block(lines, start):
    """The non-blank lines after the first line equal to [start]."""
    return following(lines, lines.index(start)) if start in lines else None


def violations(lines):
    vs = block(lines, HEADER)
    if vs is None:
        sys.exit("no error listing in a dedicated run")
    return [] if vs == ["(no errors)"] else vs


def slack_tables(lines):
    """Per-corner slack tables of a multi-corner --slack run, by name."""
    tables, name = {}, None
    for i, line in enumerate(lines):
        if line.startswith("CORNER "):
            name = line.split()[1]
        elif line == SLACK and name is not None:
            tables[name] = following(lines, i)
            name = None
    return tables


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    tv, spec, design, extra = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    entries = spec.split(",")
    multi = run(tv, design, spec, extra)
    tables = slack_tables(run(tv, design, spec, extra, slack=True))
    summary = block(multi, "MULTI-CORNER SUMMARY") or []
    counts = {}
    for line in summary:
        words = line.split()
        counts[words[0]] = int(words[-2])
    worst = None
    for line in multi:
        if line.startswith("WORST CORNER "):
            worst = line.split()[2]
    worst_lines = []
    if worst is not None:
        i = next(k for k, l in enumerate(multi) if l.startswith("WORST CORNER "))
        worst_lines = following(multi, i)
    failures = []
    for entry in entries:
        name = entry.split("=")[0]
        dedicated = run(tv, design, entry, extra)
        vs = violations(dedicated)
        if counts.get(name) != len(vs):
            failures.append(
                "%s: summary says %s errors, dedicated run lists %d"
                % (name, counts.get(name), len(vs))
            )
        if name == worst and worst_lines != vs:
            failures.append("%s: worst-corner listing differs from the dedicated run" % name)
        if tables.get(name) != block(run(tv, design, entry, extra, slack=True), SLACK):
            failures.append("%s: slack table differs from the dedicated run" % name)
    for f in failures:
        print("check_corners: " + f)
    if failures:
        sys.exit(1)
    print(
        "check_corners: %d corners match their dedicated runs (worst: %s)"
        % (len(entries), worst or "reference")
    )


if __name__ == "__main__":
    main()
