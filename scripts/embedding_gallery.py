"""Recompute the embedding certificates behind the Betti-9 case analysis:
the pinned-face embeddings of the distinguished cycles of F13 and F14, plus
the classical ones (K33 and Petersen in the projective plane, Heawood in the
torus with hexagonal faces). Certificates are written as JSON to stdout.
"""

import json
import sys

from regma.catalog import NAMED_CYCLE_MODES, catalog, named_cycle
from regma.surface import embeds_in, verify_certificate


def main() -> int:
    out = {}
    for name, chi, orientable in (("k33", 1, False), ("petersen", 1, False),
                                  ("heawood", 0, True)):
        cert = embeds_in(catalog(name), chi, orientable)
        if cert is None or not verify_certificate(catalog(name), cert):
            print(f"error: no verified chi = {chi} embedding of {name}",
                  file=sys.stderr)
            return 1
        out[name] = json.loads(cert.to_json())
        print(f"{name}: chi = {cert.chi}, faces "
              f"{sorted(len(f) for f in cert.faces)}", file=sys.stderr)
    for cname in sorted(NAMED_CYCLE_MODES):
        g, c = named_cycle(cname)
        chi, orientable = NAMED_CYCLE_MODES[cname]
        cert = embeds_in(g, chi, orientable, face=c)
        if cert is None or not verify_certificate(g, cert, c):
            print(f"error: no verified embedding of {cname} with its pinned "
                  f"cycle as a face", file=sys.stderr)
            return 1
        out[cname] = json.loads(cert.to_json())
        print(f"{cname}: pinned cycle of length {len(c)} bounds a face, "
              f"chi = {cert.chi}", file=sys.stderr)
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
