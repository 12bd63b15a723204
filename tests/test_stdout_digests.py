"""Byte identity of stdout on the named benchmark graphs.

Each command's stdout on the ten named graphs (cycles, a path, Petersen,
K8, grids and joined cycles) is pinned by its SHA-256 digest, so a change
that alters a single byte of output fails here.  The graphs are those of
the benchmark's `enumerate` workload, built by the conftest builders so
that the test does not depend on `bench/`.  The six graphs of its `scan`
workload have too many facets to enumerate here, so only `bipartite`
and `simplicial` are pinned on them.  A change that means to alter the
output must update DIGESTS or SCAN_DIGESTS and say why.
"""

import hashlib

import pytest

from adjpoly.cli import run

from conftest import (
    complete_graph,
    cycle_graph,
    grid_graph,
    joined_cycles_graph,
    path_graph,
    petersen_graph,
)

GRAPHS = {
    "C10": cycle_graph(10).edges,
    "C9": cycle_graph(9).edges,
    "P10": path_graph(10).edges,
    "petersen": petersen_graph().edges,
    "K8": complete_graph(8).edges,
    "grid3x4": grid_graph(3, 4).edges,
    "grid3x3": grid_graph(3, 3).edges,
    "J3_2": joined_cycles_graph(3, 2).edges,
    "J2_3": joined_cycles_graph(2, 3).edges,
    "J2_2": joined_cycles_graph(2, 2).edges,
}

SCAN_GRAPHS = {
    "P15": path_graph(15).edges,
    "C15": cycle_graph(15).edges,
    "grid3x5": grid_graph(3, 5).edges,
    "J4_4": joined_cycles_graph(4, 4).edges,
    "K12": complete_graph(12).edges,
    "K13": complete_graph(13).edges,
}

COMMANDS = {
    "facets-json": ["facets", "--json"],
    "facets": ["facets"],
    "homogenize": ["kuramoto-support", "--homogenize"],
    "count-json": ["count", "--json"],
    "count": ["count"],
    "support": ["kuramoto-support"],
    "support-facet": ["kuramoto-support", "--facet", "0", "--seed", "7"],
}

# SHA-256 of stdout, recorded before the facet path was last rewritten
DIGESTS = {
    ("C10", "facets-json"): "66ace73bc03e2b171d2c1e3d301a257e08e6676d61ef2ac51ca0aafc53310203",
    ("C10", "facets"): "c84a8fd6f8cd8d66869d9f43551011ab13eb41b81133d3ddd6d9f35b5e107df0",
    ("C10", "homogenize"): "1704618fbafaa049de356b8619992b94f7a0ff16a1beba0821539d4b8133f46c",
    ("C10", "count-json"): "7c6e79286a18eb7a75371c86fe5e523eb1ee72ff32e6f95e7edcc17377442480",
    ("C10", "count"): "b93c742a52e560366c278dee7330cbd247474f8b336bf511e541787491bfa83d",
    ("C10", "support"): "90b60e209bfc5babc2074ea1f5cafb5ab5ccfaf911d9cc4c01f87f0fc68259a5",
    ("C10", "support-facet"): "7dd436e3123da20fd05138286fbbed63699e04f3ea2f92b2eda826b99f4df439",
    ("C9", "facets-json"): "8dd120b465bce089dbe1721c383106efc4c15ce9a82415c3c96c245b924e5bea",
    ("C9", "facets"): "ea1be9d1f129eeec9fa335890d21f651bdec887b930110df6393cfc6bd63d7da",
    ("C9", "homogenize"): "abbaad231dfc6bd0349e1989ebc2cbdf264e5c2c2b463125480066457e7f5bcc",
    ("C9", "count-json"): "7257f1013cd69354e1ffb8cccf54e7e79c9e6d1ae8327f6081f7a89eaef1e6b7",
    ("C9", "count"): "5eafe1a97d7af480163154df026247791bb7d170f3d2f6a3a97f3cf2f3115ef0",
    ("C9", "support"): "cfe108baf511aba5cb5ac8378a60d4904f50566b547410976578abc07e7a1157",
    ("C9", "support-facet"): "48afad0c2d90501a648387a883340d99e978bdbade76cf9dc8e438a66ee09a9c",
    ("P10", "facets-json"): "1ecc536df4663536ac64a83a7c7b15e371e4d4fae62808970cde1a8f73dfbe94",
    ("P10", "facets"): "0eb152865bf9a1643a79c2ea10bd18751c1ee23a18deb7796b7f7cbad888ecf9",
    ("P10", "homogenize"): "39c6dfea597f6921a72eda1443cbfc49fe7e42608ae4f6d4a507fea66ecad7de",
    ("P10", "count-json"): "d395aadb054378c0ab65ec4bf191344c92bfa89bf53f4d4581cf850df3132d0c",
    ("P10", "count"): "3e58ef6552e9e67c3f7528499e9233ca1c04f2bf0323509f56de344f71033f45",
    ("P10", "support"): "b0fd138724c50fe1589cc7af1f0d279bbafa918fb78686bf4309e73eb4ff0ce1",
    ("P10", "support-facet"): "5d45080eb4db0e458e3322b99a47e55312bc71f525c90a2ccb386c3c10fc8f8d",
    ("petersen", "facets-json"): "0627f329690aa8c7c52457466b5e1cff504b7c3ae0816bafd592f52360e0dae1",
    ("petersen", "facets"): "8408d1d85ea26991aca0f57025ef9cf2e32a2c3ff31c41112c887c7cc2bfe118",
    ("petersen", "homogenize"): "29a5b450cb5beccdb52992a0d5327685f2b5a0d0221256252f902b0d02e7ece7",
    ("petersen", "count-json"): "621e5956e481a6fc73476ee0b4d8e6e4474a5d29a8eee0c51d4581b17f8e4915",
    ("petersen", "count"): "1587fe17042b720f8faf8688e5d77febf28ba48d0aa0c52111c2e7e664e596f5",
    ("petersen", "support"): "c304da7f958ce46a85b44b5d1ed4d637cf0194658870c601b2a23e438bb7339c",
    ("petersen", "support-facet"): "d507fc40b91c5feb54ec866dc0a7130407e750f39972e2b96a5b0e4fe08202f9",
    ("K8", "facets-json"): "32c2d88e53aac6277cd5a37229e9a622fc4ab624e279b60921bda83a8a3886dd",
    ("K8", "facets"): "03ef7547c536ffc1fcd514cf02e690b3271ad73c752f4539df753b00037e4599",
    ("K8", "homogenize"): "8cdb1c0a65c01f1605d4785084e49e18b512e098889b94d787282d355d8beebf",
    ("K8", "count-json"): "dcee3d20bd517543dd6015ef2759d91d5ae2a6080eefb26a04913a33e3b3888d",
    ("K8", "count"): "557367856a3c1ca4bc0bb9f781866b79aa0fc17c1f8cbb2d74d00e92042990dc",
    ("K8", "support"): "dadffd0ea0c807086b264d9083cf13589e5616a85a1889b835a18550ea0bae09",
    ("K8", "support-facet"): "ad646abc9bd679540ffc6203ec0d1c0cce9c30d25789fa2131fd3590a788849f",
    ("grid3x4", "facets-json"): "d30d427378284134c3f3a582b5f9890098cb5f84f74a05d4e80870cb12982f4b",
    ("grid3x4", "facets"): "60edb124e1c238ada28f5646578b27e35e00aa7321427194aceef6517acd91d5",
    ("grid3x4", "homogenize"): "47018f2c184469a639ba9cf0c2a52ea56d015f691c461f28ea63a6547098639f",
    ("grid3x4", "count-json"): "a98b076a207ca30da17157181c9e7ffa426b949f37fef62c9564b224b220411e",
    ("grid3x4", "count"): "8e4c85022fea9318ad9648dfdc3fc66f568bab1a6993e999e5e8974d9c938472",
    ("grid3x4", "support"): "76899577abbba662eedd2ee7f467614e69f28f95aa683b3406c0a617822dc2a7",
    ("grid3x4", "support-facet"): "c7b1cad416d68edefb92544706c474ede1f8421c42793b1f1c8020f328415086",
    ("grid3x3", "facets-json"): "189037f757aaeb3e81e991effc96f4fa9741b83f68f7d8041d5cc640363708f4",
    ("grid3x3", "facets"): "0541df4e652104a028e75099398e3d68a5f04499e56c911406dc38a82df863a2",
    ("grid3x3", "homogenize"): "eb8e4060162c0e4d176096644e820d638fc1fa31e52549022304573f0342a7ef",
    ("grid3x3", "count-json"): "c3db8511fca66a15f39dbecd94fa2eb1e03584ded148bd47fa2a695e7b66f8c2",
    ("grid3x3", "count"): "499a74b2a0cfc7160476485b8f9586c59e2c461cab1922a312740b36fb9a9d57",
    ("grid3x3", "support"): "7005855fa3aad0b7556f0cb98d9c242339654255a463f12b2c444f21f5d2ee34",
    ("grid3x3", "support-facet"): "7ce5d1e3b8994dd44d9ecfd7a89f88e2e3abded697fc1dcb2897f55db0abcd77",
    ("J3_2", "facets-json"): "42a314a96095bac104f9eeb640685750af08f08032eff6ae4ad612b6e6986874",
    ("J3_2", "facets"): "260ecf66b286b7c2e692e119e1e3e0063a3aa65b7c7becec135e20a47fb211cf",
    ("J3_2", "homogenize"): "f8ac8981ad9894bbc8900c92183fa78722199ecef6fd6b2cab7db2db2c10d85a",
    ("J3_2", "count-json"): "0f504be39cbf27f74812881027bfefad558ff20fb3b444ea5074226cf4590e5f",
    ("J3_2", "count"): "850d26d56a366e65b4cfbe2726449ceb342102a897fa00209e5584195cb96407",
    ("J3_2", "support"): "96b8b0d1043eeea8ae654d70a0518c9179f77f37461f303b10f1561ede04f37c",
    ("J3_2", "support-facet"): "28b21d019c5d10506270646b1d2425285878d677411facd8cd4fc7e835b63bd9",
    ("J2_3", "facets-json"): "ed309c6d6e6c126d834625c8a9aa9f991e87797cc35fd75de5e40f951d52110e",
    ("J2_3", "facets"): "5212d4f9d8358ebbf88206cc0d71e811b5d43f2ad22c26221884350621049631",
    ("J2_3", "homogenize"): "6113c6a1c0df7e74fecdc54928b532160df980e51c66b68810601c95054d469b",
    ("J2_3", "count-json"): "cf060b80a1978a89c8ddbcdc7d7ef20d258b78bd2f965a9a0c09e56df6bc7de8",
    ("J2_3", "count"): "203b2cb1cf147c47dd4c77c7d9d55c1b55601ec2e55258bd4035815e716e2443",
    ("J2_3", "support"): "5d530c7d966d006e6930ece25f7154f8134c0c8ebcb0afa713e5ffc550004549",
    ("J2_3", "support-facet"): "9ebb07e015fe35c16ddfe3ab669021cfe614480bf2fffb2ccf53f8a966d70b33",
    ("J2_2", "facets-json"): "0d962e91ec78ae87cbf804646e79e5aa604f74dd4dc7d08522f6348e6793691b",
    ("J2_2", "facets"): "9772f2a9039120a70f9b09b88a053c98f4ea9c283ceba8c96e78a81873196d6f",
    ("J2_2", "homogenize"): "e1394456eb2bbcaa468101c9822f7a79d5ddbadd1f83dc164a0eb4be89ebb832",
    ("J2_2", "count-json"): "99b9eaf6cbf1af82911e4e42266c6be935b51e63d29985636931057d06e06369",
    ("J2_2", "count"): "764e4e841b3100ee5b8e01c900280f7b94ac16aea1fddfa01e426edf6118f252",
    ("J2_2", "support"): "1fdf833c2d5884b0d97eb866fc43426461bc569fadab33adebd2c8121cdb23d8",
    ("J2_2", "support-facet"): "835a38041c16822e3cf80e1579483a57852e1471f72a21e474b6aa2fc179a866",
}


# SHA-256 of stdout, recorded before MaxBipartiteSubgraph took its sides
# as fields
SCAN_DIGESTS = {
    ("P15", "bipartite"): "4ea814325e199e715b7e7ab85314351170ef74f42f5e6ead3da4088a51584297",
    ("P15", "simplicial"): "fab3934c828d38d863c075f4a5936c873b062632b5467476afa2d1bdce9912ec",
    ("C15", "bipartite"): "0722a3f8cf7feac281e5cd05338b84125ee4814f5f2f92e80ed2699da3eb2f82",
    ("C15", "simplicial"): "fab3934c828d38d863c075f4a5936c873b062632b5467476afa2d1bdce9912ec",
    ("grid3x5", "bipartite"): "21aa7b2d9fb02d72a76f21afc02c34d48e1c90547d4e541303dfe611fcc43fb0",
    ("grid3x5", "simplicial"): "5a63ea868f0bc02c4748b090538eac18b2d3190eec85a52b783a33e7f1a632e6",
    ("J4_4", "bipartite"): "653d2a3ec689ff50f008445485cf39def0dbddfc9510bf17a449ec3aabbab278",
    ("J4_4", "simplicial"): "5a63ea868f0bc02c4748b090538eac18b2d3190eec85a52b783a33e7f1a632e6",
    ("K12", "bipartite"): "174118ce610d38cc4062cbeea5f27faa53697a0933980b128712155e0601eafe",
    ("K12", "simplicial"): "5a63ea868f0bc02c4748b090538eac18b2d3190eec85a52b783a33e7f1a632e6",
    ("K13", "bipartite"): "6cac8933694e7fc25c44890440504a7b44d769f1640f65a80481c8d071e42fd3",
    ("K13", "simplicial"): "5a63ea868f0bc02c4748b090538eac18b2d3190eec85a52b783a33e7f1a632e6",
}


def _stdout_digest(tmp_path, name, edges, argv):
    path = tmp_path / f"{name}.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    result = run([argv[0], str(path), *argv[1:]])
    assert result.exit_code == 0, result.stderr
    return hashlib.sha256(result.stdout.encode()).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", GRAPHS)
def test_stdout_digest(tmp_path, name, command):
    digest = _stdout_digest(tmp_path, name, GRAPHS[name], COMMANDS[command])
    assert digest == DIGESTS[name, command]


@pytest.mark.parametrize("command", ["bipartite", "simplicial"])
@pytest.mark.parametrize("name", SCAN_GRAPHS)
def test_scan_stdout_digest(tmp_path, name, command):
    digest = _stdout_digest(tmp_path, name, SCAN_GRAPHS[name], [command])
    assert digest == SCAN_DIGESTS[name, command]
