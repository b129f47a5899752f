"""Seeded workload inputs.

Everything the program under test receives is generated here from the
workload seed: sites with their policies, edited policy versions and
reference files, the preference population, and the traffic draws.  The
policy corpora are the repository's own synthetic generators at fixed
corpus seeds; the workload seed decides which sites and preferences are
popular and which URIs are asked for.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import accumulate

from repro.appel.model import Ruleset
from repro.appel.serializer import serialize_ruleset
from repro.appel.templates import compose_preference, template_keys
from repro.corpus.policies import DEFAULT_SEED, fortune_corpus
from repro.corpus.preferences import jrc_suite
from repro.corpus.volga import jane_preference
from repro.net.protocol import encode as _encode
from repro.p3p.serializer import serialize_policy

#: URI sections and their weights.  Some reference files cover only
#: part of a site or carve a section out, so a small share of URIs is
#: uncovered (the check answers "no policy" without a cache probe).
SECTIONS = (("shop", 40), ("account", 20), ("help", 15), ("blog", 20),
            ("legacy", 5))
_SECTION_NAMES = tuple(name for name, _ in SECTIONS)
_SECTION_CUM = tuple(accumulate(weight for _, weight in SECTIONS))

#: Distinct item paths per section: large enough that URIs rarely repeat.
URI_ITEMS = 100_000

#: Catch-all behaviours a composed preference may end with.
CATCH_ALL = ("request", "block", "limited")

#: Size of the preference population new users are drawn from.  It fits
#: the front ends' 4096-entry preference registry but not the 256-entry
#: plan cache.
POPULATION = 2000

_REFERENCE = """\
<META xmlns="http://www.w3.org/2002/01/P3Pv1">
  <POLICY-REFERENCES>
    <EXPIRY max-age="86400"/>
    <POLICY-REF about="/w3c/policy.xml#{name}">
{patterns}    </POLICY-REF>
  </POLICY-REFERENCES>
</META>
"""


def _matches(pattern: str, uri: str) -> bool:
    """P3P wildcard match for the patterns used here (one trailing ``*``)."""
    return uri.startswith(pattern[:-1]) if pattern.endswith("*") \
        else uri == pattern


@dataclass(frozen=True)
class Site:
    """One web site: host, its policy (as installed at set-up), the
    edited versions an owner may publish later, and its reference file."""

    host: str
    policy_name: str
    policy_xml: str
    edits: tuple[str, ...]
    reference_xml: str
    includes: tuple[str, ...]
    excludes: tuple[str, ...]

    def covers(self, uri: str) -> bool:
        """Whether the reference file maps *uri* to the policy."""
        return (any(_matches(p, uri) for p in self.includes)
                and not any(_matches(p, uri) for p in self.excludes))


def _reference_patterns(index: int) -> tuple[tuple[str, ...],
                                              tuple[str, ...]]:
    """Every tenth site covers only two sections; every tenth (offset)
    carves the legacy section out; the rest cover everything."""
    if index % 10 == 3:
        return ("/shop/*", "/account/*"), ()
    if index % 10 == 7:
        return ("/*",), ("/legacy/*",)
    return ("/*",), ()


def make_sites(count: int | None, edit_versions: int) -> list[Site]:
    """Sites over ``fortune_corpus(count=count)`` (None: the paper-sized
    29-policy corpus), each with *edit_versions* edited versions taken
    from the same generator at other corpus seeds (same names, other
    content)."""
    base = fortune_corpus(count=count)
    edited = [fortune_corpus(seed=DEFAULT_SEED + 1 + k, count=count)
              for k in range(edit_versions)]
    sites = []
    for index, policy in enumerate(base):
        includes, excludes = _reference_patterns(index)
        patterns = "".join(
            f"      <INCLUDE>{p}</INCLUDE>\n" for p in includes) + "".join(
            f"      <EXCLUDE>{p}</EXCLUDE>\n" for p in excludes)
        sites.append(Site(
            host=f"www.{policy.name}.example.com",
            policy_name=policy.name,
            policy_xml=serialize_policy(policy),
            edits=tuple(serialize_policy(corpus[index])
                        for corpus in edited),
            reference_xml=_REFERENCE.format(name=policy.name,
                                            patterns=patterns),
            includes=includes,
            excludes=excludes,
        ))
    return sites


@dataclass(frozen=True)
class Preference:
    """One user's APPEL preference: its canonical text (what travels on
    the wire) and the ruleset it encodes."""

    index: int
    appel: str
    ruleset: Ruleset

    @property
    def digest(self) -> str:
        """The preference hash the servers address it by."""
        return hashlib.sha256(self.appel.encode("utf-8")).hexdigest()


def _preference(index: int, ruleset: Ruleset) -> Preference:
    return Preference(index, serialize_ruleset(ruleset, indent=False),
                      ruleset)


def preference_population(seed: int, size: int = POPULATION
                          ) -> list[Preference]:
    """*size* distinct preferences composed from the template catalog:
    subsets of one to four templates in a random order, with a random
    catch-all behaviour."""
    rng = random.Random(f"population-{seed}")
    keys = template_keys()
    texts: dict[str, Ruleset] = {}
    while len(texts) < size:
        chosen = rng.sample(keys, rng.randint(1, 4))
        ruleset = compose_preference(chosen, rng.choice(CATCH_ALL))
        texts.setdefault(serialize_ruleset(ruleset, indent=False), ruleset)
    return [Preference(index, text, ruleset)
            for index, (text, ruleset) in enumerate(texts.items())]


def browsing_preferences() -> list[Preference]:
    """The five JRC levels plus Jane (Figure 2)."""
    rulesets = list(jrc_suite().values()) + [jane_preference()]
    return [_preference(index, ruleset)
            for index, ruleset in enumerate(rulesets)]


class Zipf:
    """Zipf popularity (exponent *s*) over *items* in a seeded order."""

    def __init__(self, items: list, rng: random.Random, s: float = 1.0):
        self.items = list(items)
        rng.shuffle(self.items)
        self._cum = list(accumulate(1.0 / rank ** s
                                    for rank in range(1, len(items) + 1)))

    def draw(self, rng: random.Random):
        return rng.choices(self.items, cum_weights=self._cum)[0]


def draw_uri(rng: random.Random) -> str:
    section = rng.choices(_SECTION_NAMES, cum_weights=_SECTION_CUM)[0]
    return f"/{section}/item-{rng.randrange(URI_ITEMS)}"


def wire_bytes(payload: dict) -> int:
    """Bytes of a v1 request body: what the server accepts per request.

    Bound at import, so the tracer's wrapper around the module's
    ``encode`` never records the benchmark's own bookkeeping."""
    return len(_encode(payload))


@dataclass(frozen=True)
class ChurnOp:
    """One policy_churn operation."""

    kind: str                    # "check" | "install" | "match"
    site: Site
    preference: Preference
    uri: str
    edit: int


#: The policy_churn mix: checks, installs, corpus matches.
CHURN_MIX = (("check", 85), ("install", 10), ("match", 5))
_CHURN_KINDS = tuple(kind for kind, _ in CHURN_MIX)
_CHURN_CUM = tuple(accumulate(weight for _, weight in CHURN_MIX))


class ChurnMix:
    """Draws policy_churn operations: checks and matches on Zipf-popular
    sites and preferences, installs on any site."""

    def __init__(self, sites: list[Site], population: list[Preference],
                 rng: random.Random):
        self.sites = sites
        self._sites = Zipf(sites, rng)
        self._preferences = Zipf(population, rng)

    def draw(self, rng: random.Random) -> ChurnOp:
        kind = rng.choices(_CHURN_KINDS, cum_weights=_CHURN_CUM)[0]
        site = (rng.choice(self.sites) if kind == "install"
                else self._sites.draw(rng))
        return ChurnOp(kind=kind, site=site,
                       preference=self._preferences.draw(rng),
                       uri=draw_uri(rng),
                       edit=rng.randrange(len(site.edits)))
