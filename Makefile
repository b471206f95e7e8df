# Convenience targets for the repro library.

.PHONY: install test bench figures claims examples export clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	@set -e; for w in paper-static scale-sparse adaptive-writes; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 30 --trace 0; \
	done

figures:
	repro-experiments --all

claims:
	repro-experiments --verify-claims

examples:
	@set -e; for f in examples/*.py; do \
		echo "== $$f"; python $$f > /dev/null; done; echo "all examples OK"

export:
	repro-experiments --export results/

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
		.hypothesis results
	find . -name __pycache__ -type d -exec rm -rf {} +
