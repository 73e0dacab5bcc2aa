"""One record per leaf command of `k3gonal.cli.cli`: what the leaf promises.

test_cli.py reads its leaf cases from here, and its inventory test fails for a
leaf without a record or a record without a leaf.  pytest collects nothing
from this module.
"""

from typing import NamedTuple

SINGLE, ROW = "single", "row"


class Case(NamedTuple):
    """An argv, its calls of each budgeted function of test_cli.py, the same in
    every format (a function it does not call is left out; a change that makes
    fewer calls lowers the budget, and one that makes more fails), and the
    SHA-256 of its stdout in each format."""
    argv: str
    budget: dict
    table: str
    json: str
    csv: str


class Limit(NamedTuple):
    """A *_MAX_* limit of the leaf: an argv one past its real value, and one of
    the leaf's pinned cases with that case's size under the limit, which runs
    with the limit set to the size and is refused at one less."""
    past: str
    case: str
    size: int


class Leaf(NamedTuple):
    kind: str  # SINGLE renders one payload dict, ROW streams its rows
    cases: list
    rational: bool = False  # prints its rationals from integers, building no Fraction
    limits: dict = {}  # each *_MAX_* limit the leaf enforces, by its constant's name
    # SINGLE: an argv template in p, k and d = p - 1, run over a grid of their
    # magnitudes, whose work must not grow with them; every SINGLE leaf has
    # one but `pencil verify`, whose work grows with k and its samples by
    # design, bounded by PENCIL_MAX_K and PENCIL_MAX_SAMPLES
    grid: str | None = None


# the digests were recorded before the leaf commands shared one output path;
# those of `hilb class`, `hilb q`, `hilb cone` at p = 10^40 + 1 and `hilb
# qvalues` at --pmax 10^40 while `hilb` still printed its rationals through
# `Fraction`, and the json ones at p = 1000003 before hilbert.py lost its
# duplicate guard, wrappers and hand-written payloads (their table and csv
# digests were recorded later, from code giving the same json); the other
# cases at p = 10^40 + 1 were recorded later still
LEAVES = {
    "bn rho": Leaf(SINGLE, [
        Case("bn rho -g 9 -r 1 -d 6", {},
             "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
             "3580ea33447df81c6f0757d4008ae8ee1b11b950a6000a301d1aba98bd37fece",
             "5db69ff20f660399f5d626e5a7503f1a2c4c27140ae6c69015ffbb851e9956ee"),
        Case("bn rho -g 4 -r 2 -d 3", {},
             "0b2f06dddfa807ee574a78468d3a05904873b97f44377eb93481e091c257b800",
             "f59feb4c41c63b6faa1ede2563e31378ec2a5ed871f5f13f4a869880d30ccfda",
             "6547f42b9d71264ef71423edd8b1e346b70b1bc7ced799f3fd17cdbd2b0d73f6"),
    ], grid="bn rho -g {p} -r 1 -d {k}"),
    "bn check": Leaf(SINGLE, [
        Case("bn check -p 9 -k 4 --delta 2", {"necessary_condition": 1},
             "913d16910d99ef12ddd1723a62cf8db3ced145818137325dd26621a4e16c1d6b",
             "e373dca532290cbe36dfc820af997650b7027095ddfd5a6b22765e593ea5bcbe",
             "f66c2a5d5e7981a220c62151eb40a6670e68df1723cec254836813b90e4d12d1"),
        Case("bn check -p 8 --delta 3 -r 1 -d 2", {"necessary_condition": 1},
             "93053e2a433ed54cc85d26bf7326f6d870713a3b86310621e8d46a98435cf50f",
             "bdffa869ebdbf3767bdd3b1777e2c6ca5932f6956c2bc23aee9c67a0806657a4",
             "19f0a26937037df580d6d8b4ba29a4317b12b8125c547774eaee30bd4ee04d6b"),
        Case("bn check -p 10000000000000000000000000000000000000001 -k 1000000 --delta 9999999999999999800000100000025001012501", {
             "necessary_condition": 1},
             "b077cf3cb1c0c9009a7bde1e22f4b8edcca58dbf61ecaa5cab50cc2398b58315",
             "b25e7d356225724a76febc34c55ac55a9f58a45e12b0db53027a7667f4c5017b",
             "05c8591fda18e5cedd072563ca890d9839a72e5f63b68f5eac6cdf755f98d283"),
        Case("bn check -p 2 -k 2 --delta 0", {"necessary_condition": 1},
             "1fe6ff84bc26c3fb170c2d131cc43980f7992cef7a366def0e211c804cc23fdd",
             "bbc63d954a9c15e6b017b7306de696e0a18a296d2714418013b27a89d567dada",
             "faf0955cf5f32854758e84c6da09b92fd492ff559c41e9195e5961b54944e276"),
        Case("bn check -p 6 -k 4 --delta 0", {"necessary_condition": 1},
             "1fe6ff84bc26c3fb170c2d131cc43980f7992cef7a366def0e211c804cc23fdd",
             "4597c28bc707648070ff57171ba4f5e565fcfc91d109f537f615024be3736f7c",
             "b60134559348a9aeb750a99de3514c1317c77e4488a8a5e69f5f4114d20b4eb8"),
        Case("bn check -p 7 -k 4 --delta 1", {"necessary_condition": 1},
             "60ef66692cca15925db3efc0138056429e8d2de966589326dd4173f30b3372fd",
             "8586266f22580be20c9c8045d7f9bec5a310c23d4e25f44a36de0fa1a060d7e1",
             "3aa0e70ee5b08d9b248aba50b0201e99ca24689f99b9c1fefeb380fdf4eb7957"),
    ], grid="bn check -p {p} -k {k} --delta {d}"),
    "gonality delta0": Leaf(SINGLE, [
        Case("gonality delta0 -p 9 -k 4 --verify", {"decompose": 1, "delta0": 1,
             "GonalityCase": 2},
             "eaf1ce615e42d12ed3065c7b7c250861a5740c720307d18bae63629be6ab21c3",
             "83c5ed6b00cd3245dd50e620a2e1679b6ddf8a22a3fe025619965492fcb8a700",
             "f7cd8ac0e927838f943acadcb0df73f4b342a9f576db407294b4cd62606ff0b4"),
        Case("gonality delta0 -p 20 -k 3", {"decompose": 1, "delta0": 1},
             "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469",
             "cf7cac362049a3c11bb4d06fd3e08f87ac768c879f04c9372cfd1d1a7f787126",
             "f15b03459b8aad0a96ba0850d3fe35d065ead27e7462b4bfee92767c06e8dad1"),
        Case("gonality delta0 -p 10000000000000000000000000000000000000001 -k 1000000 --verify", {
             "decompose": 1, "delta0": 1, "GonalityCase": 2},
             "c1c658e9c0810a7f0a02ceff8aa54d60a28b5bfdcab6d32b4ecb11cfd37657a9",
             "85507df77e55e2e409ef78ebbce66a626e159adacb63424729802c16be09dc85",
             "fc5d534b0247398622b19fb91a6d95b3c9f3f604ffc3a063cffd5b1dad59212a"),
        Case("gonality delta0 -p 2 -k 2 --verify", {
             "delta0": 1, "GonalityCase": 1},
             "ba23bb010a5dfcdff881cc289c13b28eeb5e48fdf043216981af29631f1287e5",
             "d193dca66699a84243765b03fd314f67b247e171720b394c8be6f312434266e1",
             "446bcdb29a5148039ab7cab47adb65a5a16dc0f0eacece57d900b99f5adf176e"),
        Case("gonality delta0 -p 6 -k 4 --verify", {"delta0": 1, "GonalityCase": 1},
             "ba23bb010a5dfcdff881cc289c13b28eeb5e48fdf043216981af29631f1287e5",
             "919cb4213e81e6fca30f1c4c07525df5f7a86be847d2af0524a608ffec7c336e",
             "5db56cd0e6c29f4548ce6a3256b1a06bffd42464ae00ff6d17bf748951b5476a"),
        Case("gonality delta0 -p 7 -k 4 --verify", {"decompose": 1, "delta0": 1,
             "GonalityCase": 2},
             "e89931b2648d886f6333c59a37cb1fad8a145177187b59cc4d411b88dfba043d",
             "28e57400cdd3b77e911e1285a8196f160db97497f344967b62ba230b360268fe",
             "0eb487c004042a5c55e38e169cea866e3da9f081928469f54c3b5b4461f16c4f"),
    ], grid="gonality delta0 -p {p} -k {k} --verify"),
    "gonality dims": Leaf(SINGLE, [
        Case("gonality dims -p 8 -k 2 --delta 4", {"GonalityCase": 1},
             "bdc6c2820dce3f6a655a18ffe68a1f1b05ac075ac52bf6706ecf6237e725b118",
             "a9b222238ce1f7761ee91074dc2be1819620921da0cb77c8b7a945cb424ddc2b",
             "dfdf012b74e60c2fc363ea978022d7a4a19bb780c14310575c0e104ed7311588"),
        Case("gonality dims -p 20 -k 5 --delta 8", {"GonalityCase": 1},
             "b919aa6b375a2c22c7472f08d50e2ac1d59446ecf74021641caec32d646a2459",
             "1330c9a03aaf8d75c2a0e2775a65a89e1e433553d8320e313476fc625fa375c5",
             "5c329d75af3c422e12a73f352112fe7b3007ad227b142b942167897a7b5332ee"),
        Case("gonality dims -p 10000000000000000000000000000000000000001 -k 1000000 --delta 9999999999999999800000100000025001012501", {
             "GonalityCase": 1},
             "709a28674f87b39afb2721ac96c0d0781756af77c4704c4b6833937f022a6314",
             "8474246bf781348e278ce8f25fbd6ef6d33e94aaad1bf754580e49388477cb50",
             "1abcbad1fed3c1a0bbef447c8390382769e36bac3794d1877d626f081f287dbf"),
        Case("gonality dims -p 2 -k 2 --delta 0", {"GonalityCase": 1},
             "bdc6c2820dce3f6a655a18ffe68a1f1b05ac075ac52bf6706ecf6237e725b118",
             "4a7728ac27fb635040790ff43852db24cde9aa983fc3c905e172d0d677a9b292",
             "2ff133ef16606e42240467832612a73922d019b32f442245bea6c6f6259365b2"),
        Case("gonality dims -p 6 -k 4 --delta 0", {"GonalityCase": 1},
             "115944526edc3badc70e194eea9cae34cfd1393bb381c4b366e77b8e55e42d97",
             "53cae6fa7766754f56c4998765cff2314978baf4ea2f8cd9f41535e382f97e3b",
             "29d43f078265c4fae70380e1ca214ce402cb3829fd71b3a7fb4c80ea71fc80e8"),
        Case("gonality dims -p 7 -k 4 --delta 1", {"GonalityCase": 1},
             "115944526edc3badc70e194eea9cae34cfd1393bb381c4b366e77b8e55e42d97",
             "15cd30a8471018324f6b06025926f715b7985b8b3ab2f177b323bc7bb36c981e",
             "50061052c27a86e250af8d83355a7a3cb97edcdf83e7bd9f32b12ad3d69ff72a"),
    ], grid="gonality dims -p {p} -k {k} --delta {d}"),
    "chains witness": Leaf(SINGLE, [
        Case("chains witness -p 8 -k 2 --delta 5", {"decompose": 1, "delta0": 1},
             "1609f2f19ad03e353d78b94424c5bae987dc33054b8b50a9f5bc5f7befdf15d9",
             "040c80cf1ba92825c24e28ae8ab1180add79e747978f6c184cd3d7f9b48e357c",
             "2e9dc553d274c380a67ed0bf7506f88879066739031109158e51eb8b6ddb8fa1"),
        Case("chains witness -p 12 -k 3 --delta 4", {"decompose": 1, "delta0": 1},
             "306043cc13df3b80c9791d9c57596ffa872ea366138b7b43d52a48b1f00fb709",
             "c46001b78365eaf721cf3d51dbbd0bf10ce8de1bc493556f8fdbf70558a0586e",
             "c29a7b56caf2ba5bcd244cfbe5af4429fdaa42b360fc5ec7b91af9e232877890"),
        Case("chains witness -p 10000000000000000000000000000000000000001 -k 1000000 --delta 10000000000000000000000000000000000000000", {
             "decompose": 1, "delta0": 1},
             "a1796f8796f19a8f281db7b16a17cfda17dab1fe1ba3a5f9b0a4fd4819759987",
             "e727872278d1884a8cea62401deaadd817ace6938dd1bdf4b12c26349d2a841b",
             "3d60d104b03a42853e16b99f296d398acb447633772ed29a94ec301e24b14bcf"),
        Case("chains witness -p 2 -k 2 --delta 0", {"delta0": 1},
             "ef77be10f414462421d1d019cef8da16b0b0ef908afd20efef0fcdd7c32900a5",
             "69389eda486c6f7bb660507904d6ee1e54e381c3b35dbc618fd3eb01f6feab36",
             "286c238e7c0bb040239fc59c555ddee4b0f4dbb00f92728f3e70429f3b5e67dc"),
        Case("chains witness -p 2 -k 2 --delta 1", {"delta0": 1},
             "309916a3fe66277cc2470117f9c95f6ebc03d50c02e852da17546f74c20587dc",
             "27d2f86407968525670a1b271570f5e075fd04dc4906df4fe76944ae688666fd",
             "8bc43adbb111aa74b792ab753df2bc2414652b2f14adeec03f9871f6d6d4bbe6"),
        Case("chains witness -p 6 -k 4 --delta 0", {"delta0": 1},
             "f2e1c9541fbe9351ca4bbaad58dda482a18e035841cc0a6c840fcb2ce9d85a19",
             "e1b576c3708616d359231547d2cf5e89c534c249e2d67b2c1bff443618140fda",
             "ff7d4e5ac273a51e21bf396d60a27f9b3b416d06ed518fec4d9a464b8e888d3e"),
        Case("chains witness -p 6 -k 4 --delta 5", {"delta0": 1},
             "fa718f51853b51cb7030f702739d05b1ef7f1ba7a60793c9d3741fbb73d7e23f",
             "68390e056551eb9660a416d9dbcdef85d3740eb50b959ebb4da5f896b9deb31e",
             "5d6040bc18980b3ae1340d86f0dd63b34a601c5f93a9e1f4cb2f73ef2c802d1a"),
        Case("chains witness -p 7 -k 4 --delta 1", {"decompose": 1, "delta0": 1},
             "ef6915783553ba4f2ffbd8878b41939c104d92302a5184cb27c3f63f587bd8e5",
             "16f157042352a3365ed153c28bca371f189ae622b291f89fd9af29a2f21356e2",
             "c481855ed3a4c5a8d31eabc372ad8b03958a3f1852b9fa6ae8f25c5718bb816a"),
        Case("chains witness -p 7 -k 4 --delta 6", {"decompose": 1, "delta0": 1},
             "f58e67757dfef95a22149073d5fdcc472844a228d84ba5aa0891a388b6afe8e6",
             "45e91ad4847d2ffe84eb11f9e7f2538431b89d7f4dc2c60322856f0c94632776",
             "0d46448a1914ea01ff9aa692614b3a5f749ae58691de9afea7d9f3a4fa6f3bab"),
    ], grid="chains witness -p {p} -k {k} --delta {d}", limits={
        # g chains at cap 2 fill (g - 1) // 2 + 2 lengths: 100001 at g = 199999,
        # 3 at the case's g = 3
        "WITNESS_MAX_LENGTHS": Limit(
            f"chains witness -p {10**40 + 1} -k 2 --delta {10**40 - 199998}",
            "chains witness -p 8 -k 2 --delta 5", 3),
    }),
    "chains enumerate": Leaf(ROW, [
        Case("chains enumerate -p 6 -k 2", {},
             "d77a8995e9a320520ec590e1b01a9ede0200c8da770d7d1c312b9a3e0d7460c3",
             "3a84757eb9c3275e8a60c4670693ff8bd1deaf66247c28ef260d568ad2a72d65",
             "4c61973a8f889a147d256cdcfc39f64815c9be960a0c9fcfa1d70022e675a008"),
        Case("chains enumerate -p 5 -k 3", {},
             "ea69385df66e9ccf191d563409cc9b1dcab5b19c2cd77a3fd18cdbc87303b608",
             "7d264ba55e6d49532a2c17deb369c9704e7cc3c83a571949d51e97c5e6df322f",
             "ca7482d3f4febaa26940df1318d7ce7aa2ebaee9f4ceb223927647d3abbb5129"),
        Case("chains enumerate -p 2 -k 2", {},
             "959e71ee8de9675d0fa41b21810d9bda9e4e0eb29215358fe05718214ed08478",
             "68d3ca924deb5ff3c4a870b5d9e527dffdcb5e6b8bf800c0fc082c0b05b8bb2b",
             "687005f9bb2ff5633eb4291c969aa40b527d3f9b5a0c2c31257ca899ce5baf5d"),
        Case("chains enumerate -p 6 -k 4", {},
             "581b3ddce004faabfe8a1ba30cc31890d023bd74826603fd9bfaa7ac9258abe0",
             "4421e495077c347f981cd9fa8a732dbf051639c613203c32aaf4ab268f40e0a2",
             "0bba75f0eb4af8789398f9c3bf8085e2da0a4f43e46927ffcdfaa754c754dd5e"),
        Case("chains enumerate -p 7 -k 4", {},
             "3194cb4c815eabfac32248595f42a2ac2b0f3b0f5aa8f735e8e4a6e672c0061d",
             "cbf31551ecfc8de2a4aff1659f7c1e65aa08cec9d1b7997b9695dee0cedb9faa",
             "e5de59cb37a80da93ae911ef48a7bb97e84abc4cd5f27da2a5163df7d401d145"),
    ], limits={
        "DEFAULT_MAX_P": Limit("chains enumerate -p 61 -k 2",
                               "chains enumerate -p 6 -k 2", 6),
    }),
    "chains stable": Leaf(SINGLE, [
        Case("chains stable -p 8 -k 2 --alpha 1:2,2:1,4:1", {},
             "5a2f13f9d12706b9693810080b5dbe2492258f0e8d69463925bf511e822b10db",
             "8d8a3d2f9718a65afa6d6a7dc67dffb7c870607947d576dc89ca2c6a649fbe9a",
             "84961c743f18c028b96a88fc03cbba305c8732c2498a93512f8b6b5bbb748c7c"),
        Case("chains stable -p 9 -k 3 --alpha 3:1,1:4,2:1", {},
             "239823650cee04abb48c1bfd9bb16bf84d2b2f5dfe6e04fbd8412a3d5d67d7b7",
             "cda18202881764b548e09fa377b4cb6b11b09fb6f4f3c94d4c1ceb4fab27d30b",
             "394a552088d58cb1135b2e1ee438395a2101e426042d9d996b02bd5a1832278d"),
        # p = 2 with its two partitions, and p = 2(k - 1), 2(k - 1) + 1 at k = 4
        Case("chains stable -p 2 -k 2 --alpha 1:2", {},
             "73f787e3fad42c5ca64924d0687f506aacc1c95d3f4c127f97470df35f24c3b8",
             "16b43deaf83ae506f55c0f17204bffd9cebf2bf25eb6d630e309db86e16bb720",
             "c21d63fcff6d1a28bec9757b2e849351622d83edd7967ace2b57a48eea4a0220"),
        Case("chains stable -p 2 -k 2 --alpha 2:1", {},
             "2fea4a7855af267628c9ab894b0742d42502b32a723f8c67973b059d58f3efe5",
             "f9d1a6520fae30cc8fffaac81c9bcf8235598f015f249ed939b90b7d24aa3442",
             "275b8a948fe3f0d77427c2671e4220619542a1ec807405d977fe99829c53922e"),
        Case("chains stable -p 6 -k 4 --alpha 1:6", {},
             "1fc10338b2048788a6e62b93eff2e5f15fb9318d14a3bb01b41a547ccab2a06d",
             "f6b29b4b9677317102295b03ebc5db18b90efe567383aa36df43023fb2576f55",
             "679c322483ab3e3a7d042937c4cdd27b949d3fbeb205dff59ecfe6e3d8765dd3"),
        Case("chains stable -p 7 -k 4 --alpha 1:5,2:1", {},
             "516944bd7be1a4327f47a0a63a60bd9880a038200f4d3864d43f4a6df1a1febd",
             "1643e0c72e75d13a772d5593460f020b9cced0a4eeb9d13225f0ca55769fb3b2",
             "c9f3a24bb957eaca67e3e8328096f2c8b8ff4ee1302d70ff92839fa58f1b0799"),
    ], grid="chains stable -p {p} -k {k} --alpha {p}:1"),
    "pencil verify": Leaf(SINGLE, [
        Case("pencil verify -k 3 --samples 5 --seed 1", {"wedge_curve": 5, "_gcd_degree": 10},
             "7061651d4bcdc67686b8b4f5092d78993578ce53bb3485af0a8fe1a5810ed786",
             "44e8077f4ccc136134dc6e956b406b40226a46b78c8a2609aabed51ef387f5ff",
             "3c882276d19a466810c6c06c18847bfde8882ad26e0587e887b39a59202c571b"),
        # no sample: the rate is 1, with no quotient to take
        Case("pencil verify -k 3 --samples 0", {},
             "6839d858caa258a623fb22890fa197c5d32218a333e56059b7b8a3035d07eb48",
             "947fa6e8e8ecfb8017601d7b0bd6b0a469a08f267af07a825b8bd336b7bd279a",
             "13ffa4e915b19b129680b50cafbf5236f771baef6554712708640c0a70319239"),
    ], rational=True, limits={
        "PENCIL_MAX_K": Limit("pencil verify -k 17 --samples 1",
                              "pencil verify -k 3 --samples 5 --seed 1", 3),
        "PENCIL_MAX_SAMPLES": Limit("pencil verify -k 3 --samples 1001",
                                    "pencil verify -k 3 --samples 5 --seed 1", 5),
    }),
    "hilb class": Leaf(SINGLE, [
        Case("hilb class -p 8 -k 2 --delta 4", {"GonalityCase": 1},
             "41a4b589d3a9680c2fd018766aa040027b911766a529bb70375e56fb5621c4e9",
             "ec0fa1f4f4c12dac5392da51dcf2989d0a561272a3bf5e484b4b620f36083e97",
             "ff17be6a597b19d28874b19b98200fe2dc1081885d432d2fed1cf561b33b12d7"),
        Case("hilb class -p 9 -k 4 --delta 2", {"GonalityCase": 1},
             "ff8b1f2f639906919166665d9825e8a405583f6d978622ed56d6eb9c1f34d2b7",
             "de2427f5e85b4694fcf8bf17c4dc3ee2fb09e4807b407fe4e8d8397ea4494daa",
             "43677d150cd7fe73773dc5a7b4bf7e9ffe64a93a3c5b7023ea4ef6e4ce52d8c6"),
        Case("hilb class -p 10000000000000000000000000000000000000001 -k 7 --delta 9999999999999999999510102051443364380368", {
             "GonalityCase": 1},
             "9b7c4204dafe3eb9a51072d65f5f508238a896bbd5d7c034bf4c9cf42ff688ef",
             "a1f9bf96026e6a9d16e18c887183f1d819dfe5e467fa5276cb901ca9a11b6dc4",
             "6b65fb3e685b85ee4358c6535f6d8e411877c92ceb120c9c8cd1f3e646929941"),
        Case("hilb class -p 3 -k 1000000 --delta 0", {
             "GonalityCase": 1},
             "c1838cc113b86a9e13acdfcb391d9af94ebb124de1d13bad906f0fa4b2ef22f9",
             "960e922ebb01c18a51909790a0a0d19ff4002c7ccd9470eff9018de8c589c201",
             "4bb1dd4965e0de04c74a14d52a69137e79c2e384d7afd23136d6f84c683dd43f"),
        Case("hilb class -p 2 -k 2 --delta 0", {"GonalityCase": 1},
             "4c8608ce25c098439504b71858c560fdfd955577f25c9e6de92c7833baaeceab",
             "a99b0fff0d7aceab7f420bb9b48788bc4a0c598a037f4343d0127c26db4cac16",
             "28dd911c50b381bc06cd95fac89ab67614e3d59669abe5f075a25ddbbfc844fd"),
        Case("hilb class -p 6 -k 4 --delta 0", {"GonalityCase": 1},
             "e67c5745ddf2e6c58e0a131b5d2625daf25731bec364c2534e35b9ac824e9a54",
             "e2a1c8c0f2ac4f3da854f076b72e82e5144980c95aa2d8126e2bb384946f5f6e",
             "17c732fef9c1aedc36c75db801f83d4fc85f4d30949d1d455bac14a1afd0fcc6"),
        Case("hilb class -p 7 -k 4 --delta 1", {"GonalityCase": 1},
             "e67c5745ddf2e6c58e0a131b5d2625daf25731bec364c2534e35b9ac824e9a54",
             "4d33dbbde895f6ddb363cb3c4aa12b165e5afc2fd52365b7f498cca326e5810f",
             "6902c2dd6d41007fd108d88c439b9b7a89b126d686766dc35960c6764173fe2d"),
    ], rational=True, grid="hilb class -p {p} -k {k} --delta {d}"),
    "hilb q": Leaf(SINGLE, [
        Case("hilb q -p 9 -k 4 --delta 2", {"GonalityCase": 1},
             "20aeb28bb896c4d1ba14254710d43147dbed3c70eb4da8a5059af207c0cb2a89",
             "fde55467c87ba8887d9e7f05dac4efceb5d183b32e30afe95048070e2d4c2ae4",
             "e9f9c295b832857c27f2e7b19867f6fb10fe0d81785bc4a44e6176dc2203caf0"),
        Case("hilb q -p 8 -k 2 --delta 4", {"GonalityCase": 1},
             "1c2469c1dfa4fff379f3c2e972344ccec02882b4428f78d33bd24937764ebfde",
             "5f1ee947545b9a57aeb18b685ff2adf156f03b358b1bab4e9b61aad9320c2791",
             "83a870379b093c11cd5da8453caecd39c7de3c47cafdef8caee8ea5d9a70947b"),
        Case("hilb q -p 10000000000000000000000000000000000000001 -k 1000000 --delta 9999999999999999800000100000025001012501", {
             "GonalityCase": 1},
             "7dd1bc1c97f9fecb9d9e6870e6b202b4ae95562839177b5b727ec1890f03b665",
             "3a50b88741bfc6a5a5b57f37b5096fad2154935ff2f2a99a76c4c273301ee369",
             "6629ae347e5e57cb30e56ec9943975ca4fc900d113e8294738e875856c074606"),
        Case("hilb q -p 2 -k 2 --delta 0", {"GonalityCase": 1},
             "62705aa1fa65a83ac2acb8a1c9be060c094b47bbb4046d477ccae29537a19943",
             "f3563d04edcc075b8c2be90bf6f45fee5750ad7e0045a136173cb818c5c62b3b",
             "0c509520266129fe8e8f1bb2db91359d41d2c523cea873ae68990c8f23f268cc"),
        Case("hilb q -p 6 -k 4 --delta 0", {"GonalityCase": 1},
             "55f85d8ab3884786dcc17d021d6f74f4c6f685411f115c0a501abc36b2cdff77",
             "758da29fec8f0c6e5cd2c890a3ee26d969b42a4dc2e7541b7fd3a8a29542cbbf",
             "2653fe48bf2f77d69b98033dc0b8820fad964989ee2827378e31b46ca687ef1e"),
        Case("hilb q -p 7 -k 4 --delta 1", {"GonalityCase": 1},
             "6fcdc9f367ca9d7db5620c869923ec07c656667135d2d66184ca6f4fe0eb4e90",
             "8961177b5a59613472fca05aba4695e225d7548edecd677610b927bbbff07ed4",
             "0fc74f18a134c5f9f0c5629c404dddc53da7b976d13fc50a997d035987970202"),
    ], rational=True, grid="hilb q -p {p} -k {k} --delta {d}"),
    "hilb cone": Leaf(SINGLE, [
        Case("hilb cone -p 8 -k 2", {"decompose": 2, "delta0": 1, "optimal_class": 1,
             "GonalityCase": 1},
             "69b3ec441c7d20998d2d8f6464adccee2beb16160e2046e5f9131c566ac2da2d",
             "e87370fea4a3992ef1ec6f19c9b5bd8656106a4d88a2f8d73a5dee17fd2258a7",
             "6519a5885be5351716e45443adbffd5fb4adba7ceab26996eb1150d4b819eae7"),
        Case("hilb cone -p 12 -k 3", {"decompose": 2, "delta0": 1, "optimal_class": 1,
             "GonalityCase": 1},
             "d12188467c597b6ce0b4cfaef8796a17e266d0466b1369fc8e2fa6e3e06fcb9c",
             "144b45e82f37352acd08df97aecb9e15c33a8e88d7f7a3350f2f375e87f4664d",
             "0802d276bceff6147a767920871b35e14786123fbe6f35ee0aa7733ed07f4c23"),
        Case("hilb cone -p 10000000000000000000000000000000000000001 -k 7", {"decompose": 2,
             "delta0": 1, "optimal_class": 1, "GonalityCase": 1},
             "99dcd69ba3506f22df9071ec15077d0f59ac46fc497013cdfdf93afaadeee59d",
             "be7888c5235c7528b684b8c0edd3d1f54022b3dad15a72e251032362eb4ae453",
             "d6519691018693a1e5740ec1d138dd18545b631589547001a464f78abf09b01f"),
        Case("hilb cone -p 1000003 -k 3", {"decompose": 2, "delta0": 1, "optimal_class": 1,
             "GonalityCase": 1},
             "22eb55a0bb1b552f1d51573bdea77b0efada36ae6938fbad5ebfebd9110faa7d",
             "ff17d3e2562f051814a7b26fa3eeb3d3b49a002815df9036a613dcbf471309b4",
             "c7e2768382f04b7475e162c1027ecfc91dfc9519102315bf2abeb0e52197b171"),
        Case("hilb cone -p 3 -k 1000000", {
             "delta0": 1, "optimal_class": 1, "GonalityCase": 1},
             "798492a398f2c9acea4eb3fa900418f34c486fc73c93ccc119389c7241a216bf",
             "cffe1875bbedf139e9a8c4e3160ad48593a219208965b26dddb7612a2d102555",
             "01124ba68b53cbcc5f5417778340ac29ee57a60c47dc19623ad44d350a07c928"),
        Case("hilb cone -p 2 -k 2", {
             "delta0": 1, "optimal_class": 1, "GonalityCase": 1},
             "d229ab1454f252829c8759d234446e26ac16bf9d99e565a5a619cb5883e94253",
             "4eca344afe96f1abd3f040bbc3c35e5ffa1f4fa03f69418d4305bd474eb226fb",
             "865fc6b367b41b548cc6507f367e7eefb2966ae88749c121bfb209955ec2c648"),
        Case("hilb cone -p 6 -k 4", {"delta0": 1, "optimal_class": 1, "GonalityCase": 1},
             "69394318e4bcc67aa303dbf6fefb5967b4dfda10d38542c848bbfedcf8fd504f",
             "ec8b7d25af819ba4ac0a26297214677661b59c181d270401b181ddff6cda9ed6",
             "eb5ff0e75aae56cf816edbff65f3f3b4642180ed4034022a29cef2a70a0b07c4"),
        Case("hilb cone -p 7 -k 4", {"decompose": 2, "delta0": 1, "optimal_class": 1,
             "GonalityCase": 1},
             "4bfa83b93ab43c79bec3ff76b445805e4db511e217cf47037d3912c75659fd35",
             "1c85f0198cf77165e7faace78ad57e92cae5bb9bb2714381b85f591ad718c91c",
             "4bf5a3fda958d896482181e45bd460be3da9c3837f3ea24abff12edffb76a3ee"),
    ], rational=True, grid="hilb cone -p {p} -k {k}"),
    "hilb qvalues": Leaf(ROW, [
        Case("hilb qvalues -k 3 --pmax 300", {"decompose": 5, "GonalityCase": 7},
             "a07c161e79b868f9fcf02c11c9ebe668cf4a8d325865f932651c88c1f3682ba4",
             "80ca97755d81d21b67199647741ee85ce741afd6fcc9245c02d0e539c2c952f4",
             "af5fd474ecd76b3ca1bd17000206f80be46582f02f9d69f1076cf323a4493407"),
        Case("hilb qvalues -k 2 --pmax 50", {"decompose": 3, "GonalityCase": 3},
             "4e26d98359590fb450f630d93a24f1e88c1a32c6148dece9d6942e01e1468606",
             "3d2e96908cf7894044f595a7127c0c9f6251806d52bfb7d6df162d4fb8449337",
             "ede3078d3aa8e57b7c8f9c93da5f3f0e2de5afaf58bb00de8840ff11025a59ae"),
        Case("hilb qvalues -k 15 --pmax 10000000000000000000000000000000000000000", {
             "decompose": 42, "GonalityCase": 68},
             "2a18ad3768a94c097bab567f491cf75df920b08d31561a38a584faf226672925",
             "627305ec3518e24b5ee61ab4df875399c9dc75a97b4ed3ff896c07fa17dc8c13",
             "a30a2dcb5e9cddcda7f82209df0b3ba27abc9fb142ba859051da94f141d3c932"),
        Case("hilb qvalues -k 4 --pmax 6", {"decompose": 3, "GonalityCase": 7},
             "3d6a46adb6dfc73c7b2afb12898a6dee0f3ffdd29a4981384c13312495f5e6ef",
             "104337a37be81a69faab0bbb7ed7ab67419eab1bc9966c32a7dc8a57330648dd",
             "0368a6b292b1372ac44669cae6d8e2be8c2f244a3dc6970652d37e0440a31085"),
        Case("hilb qvalues -k 4 --pmax 7", {"decompose": 4, "GonalityCase": 8},
             "ba11cebabc688c9f1be3b128c68950195e9f26256a26738ff392cf50564628fe",
             "ed86db74fa80f956b7d7eeddaa701ccc54d91797593bcdfae75a7df22560abff",
             "986e53b39210fd1e785bd8afcecc05c8e3f0b7828d00f07789f6397f4e6886c6"),
    ], rational=True, limits={
        # the delta0 = 0 regime alone holds pmax - 1 candidates while pmax < 2(k-1)
        "QVALUES_MAX_VALUES": Limit("hilb qvalues -k 1000000 --pmax 100002",
                                    "hilb qvalues -k 3 --pmax 300", 7),
    }),
    "hilb lagrangian": Leaf(SINGLE, [
        Case("hilb lagrangian -p 10 -k 2", {"lagrangian_report": 1},
             "e6f79a74a6f9d2721b0f6182709354877ce2fae7cc32865458ead6822d6bae83",
             "ebd735ea42878ed5644ee081063c5b58b9de025ec9ea53f4912ff12e1ce6b38e",
             "063c768cd08ff0b9df57a9317af51e01f95ee14d85fe99c669afbed0ed4c5c11"),
        Case("hilb lagrangian -p 11 -k 2", {"lagrangian_report": 1},
             "47b84303913e68e22b37c2a7183f50e7f69a987b3650db55ae9d825a44e9204f",
             "76abc3543d871ae2c6593b9ff02070dc7aa7084779250b1788c243fd9081b3ba",
             "cc86b234f75a4810469712770af3fbe5b8e429c32322d17998655cb740002fc9"),
        Case("hilb lagrangian -p 10 -k 5", {"lagrangian_report": 1},
             "70e472a322ad866dad8d075ef4bcd988e7da26f3cc009eda4f4fb1dd22dde447",
             "243ebb267d0b6b9cba03410ac588cdf5490774b7cb6a004f2cec59b44384b037",
             "181a451f91582a3979ceabdced34fb3d63647854505de66c98b2ce0f503fb04c"),
        Case("hilb lagrangian -p 10000000000000000000000000000000000000001 -k 1000000", {
             "lagrangian_report": 1},
             "47b84303913e68e22b37c2a7183f50e7f69a987b3650db55ae9d825a44e9204f",
             "048121acdd00cf266779086d478871bdc39896de9722cabae345e02ceda25642",
             "236b863ad79d9c0aaad4a5e7e90e7ac1b6535202625bb767975eb4526b14ab8d"),
        Case("hilb lagrangian -p 2 -k 2", {"lagrangian_report": 1},
             "692485e4e323cc713780819757bff7a7522966451bc7627f6f608b8e6dd64d11",
             "d8bce987e6dc794392eb858ef8d139201381ca2e7120f65720927faa2cbf213c",
             "8dfb3ecf179a009a64a3e4ecdb28c355d8a6f66b44d8c21e646107c992f5ae18"),
        Case("hilb lagrangian -p 6 -k 4", {"lagrangian_report": 1},
             "47b84303913e68e22b37c2a7183f50e7f69a987b3650db55ae9d825a44e9204f",
             "6b5bc9b442e837c3a90687aa3f74edf5d1ea6a9da3b56dafb7e6920fe8a6d964",
             "d3169e75346776a5eb529d30fe86b360030c923d01c696566713d8936396347f"),
        Case("hilb lagrangian -p 7 -k 4", {"lagrangian_report": 1},
             "47b84303913e68e22b37c2a7183f50e7f69a987b3650db55ae9d825a44e9204f",
             "55e1f1213d289d8e7a03d9df7c6f9c0af9743e8688528e9aab47edfb1a294e84",
             "b8a38b80c59540c6297cd6cf74471cdcdf24f94b4bc23aa8a63cd45697d36f9d"),
    ], grid="hilb lagrangian -p {p} -k {k}"),
    "hilb rays": Leaf(SINGLE, [
        Case("hilb rays -p 8 -k 2", {"decompose": 2, "delta0": 1, "optimal_class": 1,
             "GonalityCase": 1, "minimal_q_family": 1},
             "96050d71c192dd286e15d1a5ceb77560c5463590d7b23fa93ebd12f505e2f3d9",
             "0a08d46c9f64f8a5f822e0e4debbf38b80cbd7bc5ad80fa580dd9a23d87bbcdd",
             "a0184a9fd9f8b48fb076ce941ea52b573273f1ff76c6b00ae85b0521ddee1374"),
        Case("hilb rays -p 12 -k 3", {"decompose": 5, "delta0": 3, "optimal_class": 2,
             "GonalityCase": 2, "minimal_q_family": 1},
             "bfb4fdf2de8d2d96c42972e2ff2be2e58af337449aca52c9f7807a6269624ddc",
             "b4fcc369ba75a8f5ef239f87f9b6d52308a2a7945f06e39991f348a41ba40816",
             "fd2593745d51e6dcc98c6092bd450226a6decd7a17b6a0cdab44666ec65ef214"),
        Case("hilb rays -p 1000003 -k 3", {"decompose": 2, "delta0": 1, "optimal_class": 1,
             "GonalityCase": 1, "minimal_q_family": 1},
             "01cf3a0800e5548ccf068fb263685596d8b68f224fd4d7ace0fbbd5229f5e888",
             "d0533bebdf4eb11e165a9d303350254624fa5d8a3749f392adeb9f0082784987",
             "68c25d3724d61689f7c0c5226549d67d10ebc8b2f3005aff49bbe7190ee3a58b"),
        Case("hilb rays -p 10000000000000000000000000000000000000001 -k 1000000", {
             "decompose": 2, "delta0": 1, "optimal_class": 1, "GonalityCase": 1, "minimal_q_family": 1},
             "eb1898f4054eee1695c1303a208b36a2a1312046772a77db750b38eea9953da6",
             "488c3d291c4785d463a84db8e8edfa951143b7466f450bbfab326af7a31198ed",
             "0c134f6fc43d73431f422464b68d46b2547102d22955878de2084f0fee8c9af8"),
        Case("hilb rays -p 6 -k 4", {
             "delta0": 1, "optimal_class": 1, "GonalityCase": 1},
             "5231e56b3216093f38dab3e2b65755f3eb81b0ccac2b1a1fb868be22b24757df",
             "7b2361b87fd24488c65b6ca87c66dae210d410124f632b662580660d6df764e2",
             "d04ac4763dc10b7e09d4891a816bba5ec6ec93593347d1654ad47622078e53ad"),
        Case("hilb rays -p 7 -k 4", {"decompose": 2, "delta0": 1, "optimal_class": 1,
             "GonalityCase": 1, "minimal_q_family": 1},
             "9495914f3a2c6155e03e512d2c938c3789ad476e32cc4bcfda54083fec92f4e6",
             "c98edc54cd97449a4fa2f1d4d216ed7505631fe4a11347518723874e3fb6b031",
             "22878a3d2a96bf085671d734d391866a7c03de1afdb5a83395b9dacfef8855fc"),
        Case("hilb rays -p 2 -k 2", {
             "delta0": 1, "optimal_class": 1, "GonalityCase": 1},
             "aac24c6f38bb3f79b674790d722102c503bf47de3f0f70331fc56ad09f54329f",
             "a02d6fd490f9f815c8775328c73b12e3483d233b235dbfa6045bb1c9abbaf79b",
             "4b3178eb3eb76500193691486ab14aaf41e42b7136ed35e006a6d7b210667ac8"),
    ], rational=True, grid="hilb rays -p {p} -k {k}"),
    "hilb scan": Leaf(ROW, [
        Case("hilb scan --pmax 12 --kmax 3", {"decompose": 135, "delta0": 94,
             "optimal_class": 69, "GonalityCase": 69,
             "minimal_q_family": 18, "lagrangian_report": 22},
             "e5efe3ee2689043a800eb674c02d3195241761878254b6f750665731a69b5b57",
             "61b97057ce00f6085448c678cf2613d705465f349894a8494f89b5cbf48d3c27",
             "fff1931cf609db89db3b1251d60578f05db69d3e5b53eb7379b6e65527eb3da2"),
        Case("hilb scan --pmin 5 --pmax 9 --kmin 3 --kmax 4", {"decompose": 56, "delta0": 40,
             "optimal_class": 30, "GonalityCase": 30,
             "minimal_q_family": 8, "lagrangian_report": 10},
             "4473f07ce7df87d1ce01c1c95a81a41edacac55ca09b455e50e03c6480becc3b",
             "b3ee98c78cb610283021bcbe6939d91d769b9abe3e93944f8088ef19ca57bc7b",
             "6717f095bfd452e1565b4265136d745e02542167b78d44e002f10b6fc71c28f7"),
        Case("hilb scan --pmin 5 --pmax 8 --kmin 4 --kmax 4", {"decompose": 14, "delta0": 16,
             "optimal_class": 12, "GonalityCase": 12,
             "minimal_q_family": 2, "lagrangian_report": 4},
             "d73cc03e45b7be95f4da21e53d4d3f9faeb956108120ed64ebd2ee2fc508b354",
             "1164aedc725071d94b792ac84dede125df60c623d1e6704a4c330c3f88996e31",
             "146f0af759966e791b5177d011743d178cc39444e7507c32f2998c8bb49b5917"),
    ], rational=True, limits={
        "SCAN_MAX_ROWS": Limit("hilb scan --pmax 100002 --kmax 2",
                               "hilb scan --pmax 12 --kmax 3", 22),
    }),
}
CASES = {case.argv: case for leaf in LEAVES.values() for case in leaf.cases}
SHA256 = {(argv, fmt): getattr(case, fmt) for argv, case in CASES.items()
          for fmt in ("table", "json", "csv")}
LIMITS = {name: limit for leaf in LEAVES.values() for name, limit in leaf.limits.items()}


def argvs(where=lambda leaf: True):
    """The argv of every pinned case of each leaf that `where` accepts, sorted."""
    return sorted(case.argv for leaf in LEAVES.values() if where(leaf) for case in leaf.cases)
