"""python -m ringqpe, and the installed ringqpe script, run the command line.

The heap built at start-up, numpy's and the package's modules, is frozen
once they are imported: it lives until exit, so neither the command's own
cyclic collections nor the interpreter's final ones need to walk it.
"""

import gc
import sys

from .cli import main

gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
