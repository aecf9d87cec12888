"""Record the Betti TSVs that big-complexes compares against.

Run once, from the root of the repository, at the commit whose outputs are
the reference:

    PYTHONPATH=src python3 perfbench/record_expected.py

The tables are written for the unrelabelled instances; the benchmark
relabels them for each seed.
"""

from lcmkit.cm import hochster_betti
from lcmkit.linalg import FieldSpec

from workloads import BIG_REQUESTS, _big_instance, expected_path


def main() -> None:
    for requests in BIG_REQUESTS.values():
        for instance, field, command in requests:
            if command != "betti":
                continue
            delta, _ = _big_instance(instance)
            path = expected_path(instance, field)
            path.write_text(hochster_betti(delta, FieldSpec.parse(field)).to_tsv(), encoding="utf-8")
            print(path.name)


if __name__ == "__main__":
    main()
