"""Command-line interface: run built-in cases and convergence studies.

    boundfem list
    boundfem run <case> [--out-dir DIR] [--no-penalty] [--seed S] [--gamma0 G] ...
    boundfem study <case> [--levels N] [--mode uniform|adaptive] ...

Settings may also come from a plain-text key=value config file (--config);
command-line flags override file entries. `run` echoes every effective
setting, its seed included, into run_info.txt for reproducibility.
"""

import argparse
import sys

from .cases import CASES
from .app import convergence_study, run_case

CONFIG_KEYS = {
    "penalty.gamma0": ("gamma0", float),
    "penalty.quadrature": ("penalty_quadrature", str),
    "bounds.lower": ("lower", float),
    "bounds.upper": ("upper", float),
    "tol": ("tol", float),
    "p": ("p", int),
    "levels": ("levels", int),
    "theta_mark": ("theta_mark", float),
}


def read_config(path):
    """Parse a key = value config file ('#' starts a comment); ValueError if unreadable."""
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read config file {str(path)!r}: {exc.strerror}") from exc
    out = {}
    with fh:
        for ln in fh:
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ValueError(f"bad config line: {ln!r}")
            key, val = (part.strip() for part in ln.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            name, conv = CONFIG_KEYS[key]
            out[name] = conv(val)
    return out


def make_parser():
    # allow_abbrev=False: a flag prefix (`--theta` for `--theta-mark`) is an error
    ap = argparse.ArgumentParser(prog="boundfem", allow_abbrev=False,
                                 description="bound-preserving adaptive FEM solver")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list built-in cases")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("case", help="case id (see `boundfem list`)")
    common.add_argument("--config", help="key=value settings file")
    common.add_argument("--p", type=int, help="polynomial degree")
    common.add_argument("--gamma0", type=float, help="penalty scale in (0,1)")
    common.add_argument("--tol", type=float, help="Newton stopping tolerance")
    common.add_argument("--levels", type=int, help="refinement levels")
    common.add_argument("--theta-mark", type=float, help="bulk-marking fraction")
    common.add_argument("--out-dir", help="artifact output directory")

    run = sub.add_parser("run", parents=[common], allow_abbrev=False,
                         help="run one case end to end")
    run.add_argument("--no-penalty", action="store_true",
                     help="skip the bound penalty (linear solves)")
    run.add_argument("--seed", type=int, help="recorded in run_info.txt for reproducibility")
    st = sub.add_parser("study", parents=[common], allow_abbrev=False,
                        help="convergence study")
    st.add_argument("--mode", choices=("uniform", "adaptive"),
                    help="refinement mode (defaults to the case's mode)")
    st.add_argument("--with-penalty", action="store_true",
                    help="penalized solves in the study")
    return ap


def _collect_overrides(args):
    over = {}
    if args.config:
        over.update(read_config(args.config))
    for name, _ in CONFIG_KEYS.values():
        val = getattr(args, name, None)     # names without a flag read None
        if val is not None:
            over[name] = val
    return over


def main(argv=None):
    args = make_parser().parse_args(argv)
    if args.command == "list":
        for name, case in sorted(CASES.items()):
            print(f"{name:8s} {case.title}")
        return 0

    if args.case not in CASES:
        print(f"unknown case {args.case!r}; available cases:", file=sys.stderr)
        for name, case in sorted(CASES.items()):
            print(f"  {name:8s} {case.title}", file=sys.stderr)
        return 2

    try:
        return _run(args)
    except ValueError as exc:       # a bad setting, from the flags or the config file
        print(f"boundfem: {exc}", file=sys.stderr)
        return 2


def _run(args):
    over = _collect_overrides(args)
    if args.command == "run":
        result = run_case(args.case, out_dir=args.out_dir,
                          with_penalty=not args.no_penalty,
                          seed=args.seed, **over)
        if result.violation is not None:
            rep = result.violation
            print(f"{args.case}: range [{rep.u_min:.6g}, {rep.u_max:.6g}], "
                  f"undershoot {rep.undershoot:.3e}, overshoot {rep.overshoot:.3e}")
        else:
            print(f"{args.case}: solved, {result.u.space.n_dofs} trial dofs")
        if result.records:
            last = result.records[-1]
            print(f"levels: {len(result.records)}, final dofs (U,V) = "
                  f"({last.dofs_u}, {last.dofs_v}), estimator {last.estimator:.4e}")
        if args.out_dir:
            print(f"artifacts in {args.out_dir}")
        return 0

    study = convergence_study(args.case, mode=args.mode,
                              with_penalty=args.with_penalty,
                              out_dir=args.out_dir, **over)
    for r in study.rows:
        err = "" if r.err_l2 is None else f" L2={r.err_l2:.4e}"
        vh = "" if r.err_vh is None else f" Vh={r.err_vh:.4e}"
        print(f"level {r.level}: h={r.h_max:.5f} dofs={r.dofs_u}{err}{vh} "
              f"est={r.estimator:.4e}")
    if study.slope_l2 is not None:
        print(f"L2 slope vs sqrt(dofs): {study.slope_l2:.3f}")
    if study.slope_vh is not None:
        print(f"Vh slope vs sqrt(dofs): {study.slope_vh:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
