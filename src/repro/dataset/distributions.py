"""Value pools and samplers used by the synthetic dataset generators.

The original demo uses a soccer-standings table scraped from Wikipedia.  That
scrape is not distributed with the paper, so the generators in
:mod:`repro.dataset.generators` rebuild tables with the same schema and the
same kind of attribute correlations (team → city → country, league → country)
from the curated value pools below.  The pools are small and public-knowledge
facts; what matters for the experiments is the *correlation structure*, not
the specific strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.config import make_rng

#: (team, city, country, league) facts used to generate consistent soccer rows.
SOCCER_TEAMS: tuple[tuple[str, str, str, str], ...] = (
    ("Real Madrid", "Madrid", "Spain", "La Liga"),
    ("FC Barcelona", "Barcelona", "Spain", "La Liga"),
    ("Atletico Madrid", "Madrid", "Spain", "La Liga"),
    ("Sevilla FC", "Seville", "Spain", "La Liga"),
    ("Valencia CF", "Valencia", "Spain", "La Liga"),
    ("Athletic Bilbao", "Bilbao", "Spain", "La Liga"),
    ("Villarreal CF", "Villarreal", "Spain", "La Liga"),
    ("Real Sociedad", "San Sebastian", "Spain", "La Liga"),
    ("Liverpool", "Liverpool", "England", "Premier League"),
    ("Manchester City", "Manchester", "England", "Premier League"),
    ("Manchester United", "Manchester", "England", "Premier League"),
    ("Chelsea", "London", "England", "Premier League"),
    ("Arsenal", "London", "England", "Premier League"),
    ("Tottenham Hotspur", "London", "England", "Premier League"),
    ("Everton", "Liverpool", "England", "Premier League"),
    ("Leicester City", "Leicester", "England", "Premier League"),
    ("Juventus", "Turin", "Italy", "Serie A"),
    ("Inter Milan", "Milan", "Italy", "Serie A"),
    ("AC Milan", "Milan", "Italy", "Serie A"),
    ("AS Roma", "Rome", "Italy", "Serie A"),
    ("Lazio", "Rome", "Italy", "Serie A"),
    ("Napoli", "Naples", "Italy", "Serie A"),
    ("Bayern Munich", "Munich", "Germany", "Bundesliga"),
    ("Borussia Dortmund", "Dortmund", "Germany", "Bundesliga"),
    ("RB Leipzig", "Leipzig", "Germany", "Bundesliga"),
    ("Bayer Leverkusen", "Leverkusen", "Germany", "Bundesliga"),
    ("Paris Saint-Germain", "Paris", "France", "Ligue 1"),
    ("Olympique Lyonnais", "Lyon", "France", "Ligue 1"),
    ("Olympique de Marseille", "Marseille", "France", "Ligue 1"),
    ("AS Monaco", "Monaco", "France", "Ligue 1"),
)

#: (city, state, zip-prefix, county) facts for the hospital-style dataset —
#: the schema family used throughout the data-cleaning literature
#: (HoloClean, Holistic cleaning) as an address/provider table.
HOSPITAL_LOCATIONS: tuple[tuple[str, str, str, str], ...] = (
    ("Birmingham", "AL", "352", "Jefferson"),
    ("Huntsville", "AL", "358", "Madison"),
    ("Mobile", "AL", "366", "Mobile"),
    ("Montgomery", "AL", "361", "Montgomery"),
    ("Phoenix", "AZ", "850", "Maricopa"),
    ("Tucson", "AZ", "857", "Pima"),
    ("Los Angeles", "CA", "900", "Los Angeles"),
    ("San Diego", "CA", "921", "San Diego"),
    ("San Francisco", "CA", "941", "San Francisco"),
    ("Sacramento", "CA", "958", "Sacramento"),
    ("Denver", "CO", "802", "Denver"),
    ("Miami", "FL", "331", "Miami-Dade"),
    ("Orlando", "FL", "328", "Orange"),
    ("Atlanta", "GA", "303", "Fulton"),
    ("Chicago", "IL", "606", "Cook"),
    ("Boston", "MA", "021", "Suffolk"),
    ("Detroit", "MI", "482", "Wayne"),
    ("Minneapolis", "MN", "554", "Hennepin"),
    ("New York", "NY", "100", "New York"),
    ("Buffalo", "NY", "142", "Erie"),
    ("Cleveland", "OH", "441", "Cuyahoga"),
    ("Columbus", "OH", "432", "Franklin"),
    ("Portland", "OR", "972", "Multnomah"),
    ("Philadelphia", "PA", "191", "Philadelphia"),
    ("Houston", "TX", "770", "Harris"),
    ("Dallas", "TX", "752", "Dallas"),
    ("Austin", "TX", "787", "787 Travis".split()[1]),
    ("Seattle", "WA", "981", "King"),
)

#: Hospital measure codes and their descriptive names (measure code → name is
#: a functional dependency the constraints exploit).
HOSPITAL_MEASURES: tuple[tuple[str, str], ...] = (
    ("AMI-1", "Aspirin at arrival"),
    ("AMI-2", "Aspirin at discharge"),
    ("AMI-3", "ACE inhibitor for LVSD"),
    ("AMI-4", "Adult smoking cessation advice"),
    ("AMI-5", "Beta blocker at discharge"),
    ("HF-1", "Discharge instructions"),
    ("HF-2", "Evaluation of LVS function"),
    ("HF-3", "ACE inhibitor for LVSD HF"),
    ("PN-2", "Pneumococcal vaccination"),
    ("PN-3B", "Blood culture before antibiotic"),
    ("PN-4", "Smoking cessation advice PN"),
    ("PN-5C", "Initial antibiotic timing"),
    ("SCIP-1", "Prophylactic antibiotic 1 hour"),
    ("SCIP-2", "Prophylactic antibiotic selection"),
)

#: (airline, flight-number prefix, origin, destination, scheduled departure)
#: tuples for the flights dataset family.
FLIGHT_ROUTES: tuple[tuple[str, str, str, str, str], ...] = (
    ("AA", "AA-1021", "JFK", "LAX", "08:30"),
    ("AA", "AA-1187", "DFW", "ORD", "10:05"),
    ("AA", "AA-1302", "MIA", "JFK", "14:45"),
    ("UA", "UA-414", "SFO", "ORD", "07:15"),
    ("UA", "UA-522", "ORD", "EWR", "11:20"),
    ("UA", "UA-689", "DEN", "SFO", "16:40"),
    ("DL", "DL-202", "ATL", "LGA", "06:55"),
    ("DL", "DL-315", "MSP", "SEA", "09:10"),
    ("DL", "DL-447", "DTW", "ATL", "13:25"),
    ("WN", "WN-118", "DAL", "HOU", "07:45"),
    ("WN", "WN-233", "MDW", "BWI", "12:35"),
    ("B6", "B6-915", "BOS", "FLL", "15:05"),
    ("B6", "B6-624", "JFK", "SFO", "17:50"),
    ("AS", "AS-331", "SEA", "ANC", "08:05"),
    ("AS", "AS-480", "PDX", "LAX", "19:30"),
)

#: (state, tax-rate percentage, has-local-surcharge) facts for the tax dataset
#: family (single-tuple constraints: rate is functionally determined by state).
TAX_BRACKETS: tuple[tuple[str, float, str], ...] = (
    ("AL", 5.00, "yes"),
    ("AZ", 4.50, "no"),
    ("CA", 9.30, "yes"),
    ("CO", 4.63, "no"),
    ("FL", 0.00, "no"),
    ("GA", 5.75, "yes"),
    ("IL", 4.95, "no"),
    ("MA", 5.00, "no"),
    ("MI", 4.25, "yes"),
    ("MN", 7.05, "no"),
    ("NY", 6.85, "yes"),
    ("OH", 4.80, "yes"),
    ("OR", 9.00, "no"),
    ("PA", 3.07, "yes"),
    ("TX", 0.00, "no"),
    ("WA", 0.00, "no"),
)

#: First names / last names used for person-like attributes.
FIRST_NAMES = (
    "Alice", "Ben", "Carla", "Daniel", "Elena", "Farid", "Grace", "Hiro",
    "Ines", "Jonas", "Kira", "Liam", "Maya", "Noah", "Olga", "Pavel",
    "Quinn", "Rosa", "Samir", "Tara", "Uri", "Vera", "Wen", "Yara", "Zane",
)
LAST_NAMES = (
    "Adams", "Brown", "Chen", "Diaz", "Evans", "Fischer", "Garcia", "Haddad",
    "Ivanov", "Johnson", "Kim", "Lopez", "Miller", "Nakamura", "Okafor",
    "Patel", "Quintero", "Rossi", "Schmidt", "Tanaka", "Ueda", "Vargas",
    "Weber", "Xu", "Young", "Zhang",
)


@dataclass(frozen=True)
class ZipfSampler:
    """Skewed categorical sampler.

    Real dirty tables are rarely uniform: a handful of cities, measures or
    routes dominate.  The generators therefore draw reference facts with a
    Zipf-like weighting so the conditional statistics the repair algorithms
    learn are realistically skewed.

    Parameters
    ----------
    n_items:
        Size of the pool to sample indexes from.
    exponent:
        Zipf exponent; ``0`` degenerates to uniform sampling.
    """

    n_items: int
    exponent: float = 1.0

    def weights(self) -> np.ndarray:
        ranks = np.arange(1, self.n_items + 1, dtype=float)
        raw = ranks ** (-self.exponent) if self.exponent > 0 else np.ones_like(ranks)
        return raw / raw.sum()

    def sample_indexes(self, size: int, rng=None) -> np.ndarray:
        rng = make_rng(rng)
        return rng.choice(self.n_items, size=size, p=self.weights())


def sample_from_pool(pool: Sequence[Any], size: int, rng=None, exponent: float = 1.0) -> list[Any]:
    """Draw ``size`` items (with replacement, Zipf-skewed) from ``pool``."""
    sampler = ZipfSampler(n_items=len(pool), exponent=exponent)
    indexes = sampler.sample_indexes(size, rng=rng)
    return [pool[int(i)] for i in indexes]

