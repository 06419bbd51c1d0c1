"""Set-up probe: the work a command does before it computes, then exit.

``python bench/setup_probe.py solve run.cfg`` imports the CLI and runs the
set-up calls of ``solve``: ``config.config_from_text``,
``spectral.FrequencyGrid``, ``app.build_symbol``,
``operators.MultiplierOperator`` and ``app.build_initial_field``.
``python bench/setup_probe.py import`` imports the CLI alone, which is the
set-up of ``verify``.  The process leaves by ``os._exit`` so that tearing
down the interpreter does not count as set-up.
"""

import os
import sys


def main(argv) -> int:
    from frechet_flow import cli  # noqa: F401  (the import `python -m frechet_flow` does)

    if argv[:1] == ["solve"] and len(argv) == 2:
        from frechet_flow import app, config, operators, spectral

        with open(argv[1]) as handle:
            run = config.config_from_text(handle.read())
        grid = spectral.FrequencyGrid(run.n, run.J, run.inv_h)
        operators.MultiplierOperator(app.build_symbol(run), grid, label=run.symbol_spec())
        app.build_initial_field(run, grid)
    elif argv != ["import"]:
        print("usage: setup_probe.py solve CONFIG | import", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
