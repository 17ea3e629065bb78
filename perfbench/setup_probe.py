"""Set-up probe: import the package and finish one warm-up operation.

The benchmark times this whole process, from start to exit, as ``setup_s``.
It runs with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

import momentbayes

momentbayes.full_update(momentbayes.make_problem([1.0, 2.0, 3.0], [11, 2, 7], 2.3))
