"""Name → loader registry for the dataset stand-ins."""

from __future__ import annotations

from repro.datasets.acmdblp import load_acm_dblp
from repro.datasets.citation import load_citeseer, load_cora
from repro.datasets.douban import load_douban
from repro.datasets.dbp15k import load_dbp15k
from repro.datasets.ppi import load_ppi
from repro.datasets.social import load_facebook
from repro.exceptions import DatasetError

GRAPH_LOADERS = {
    "cora": load_cora,
    "citeseer": load_citeseer,
    "ppi": load_ppi,
    "facebook": load_facebook,
}

PAIR_LOADERS = {
    "douban": load_douban,
    "acm-dblp": load_acm_dblp,
    "dbp15k_zh_en": lambda **kw: load_dbp15k("zh_en", **kw),
    "dbp15k_ja_en": lambda **kw: load_dbp15k("ja_en", **kw),
    "dbp15k_fr_en": lambda **kw: load_dbp15k("fr_en", **kw),
}


def load_graph_dataset(name: str, **kwargs):
    """Load one of the single-graph stand-ins by name."""
    try:
        loader = GRAPH_LOADERS[name]
    except KeyError:
        raise DatasetError(
            f"unknown graph dataset {name!r}; available: {sorted(GRAPH_LOADERS)}"
        ) from None
    return loader(**kwargs)


def available_datasets() -> dict[str, list[str]]:
    """Catalogue of everything loadable."""
    return {
        "graphs": sorted(GRAPH_LOADERS),
        "pairs": sorted(PAIR_LOADERS),
    }
