"""Put the checkout's ``src/`` and the checkout itself on the import path."""

import os
import sys

CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(CHECKOUT, "src"), CHECKOUT):
    if path not in sys.path:
        sys.path.insert(0, path)
