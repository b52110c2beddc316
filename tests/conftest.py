"""Shared fixtures: a small demo program, its learned rules, and DBT setups.

Session-scoped so the expensive pieces (learning, derivation) are paid once
per test run.
"""

from __future__ import annotations

import pytest

from repro.dbt import DBTEngine, check_against_reference
from repro.dbt.guest_interp import GuestInterpreter
from repro.lang import compile_pair
from repro.learning import learn_pair
from repro.param import build_setup

DEMO_SOURCE = """
global data[256];
global out[64];

func fill(seed) {
  var i, v;
  i = 0;
  v = seed;
loop:
  data[i] = v;
  v = v * 1103515245;
  v = v + 12345;
  i = i + 4;
  if (i <u 96) goto loop;
  return v;
}

func mix(a, b) {
  var i, s, x, t;
  s = a;
  t = b;
  i = 0;
loop:
  x = data[i];
  s = s + x;
  t = t ^ s;
  x = x >>> 3;
  s = s - x;
  if ((s & t) != 0) goto skip;
  s = s + 7;
skip:
  i = i + 4;
  if (i <u 96) goto loop;
  s = s + t;
  return s;
}

func main() {
  var r, q;
  r = call fill(77);
  q = call mix(r, 13);
  out[0] = q;
  q = q & 65535;
  out[4] = q;
  return q;
}
"""


@pytest.fixture(scope="session")
def demo_pair():
    return compile_pair("demo", DEMO_SOURCE)


@pytest.fixture(scope="session")
def demo_learning(demo_pair):
    return learn_pair(demo_pair)


@pytest.fixture(scope="session")
def demo_rules(demo_learning):
    return demo_learning.rules


@pytest.fixture(scope="session")
def demo_setup(demo_rules):
    return build_setup(demo_rules)


@pytest.fixture(scope="session")
def demo_reference(demo_pair):
    return GuestInterpreter(demo_pair.guest).run()


def run_demo_config(demo_pair, demo_setup, stage: str):
    """Run the demo under one DBT configuration, asserting correctness."""
    engine = DBTEngine(demo_pair.guest, demo_setup.configs[stage])
    result = engine.run()
    ok, message = check_against_reference(demo_pair.guest, result)
    assert ok, f"{stage}: {message}"
    return result
