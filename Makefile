# Development targets for the packed R-tree reproduction.

PYTHON ?= python3

.PHONY: install test bench bench-check bench-full experiments examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-check:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable

experiments:
	$(PYTHON) -m repro.experiments

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/map_database.py /tmp
	$(PYTHON) examples/spatial_join.py
	$(PYTHON) examples/packed_vs_dynamic.py
	$(PYTHON) examples/persistent_index.py
	$(PYTHON) examples/pictorial_archive.py

clean:
	rm -rf build src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
