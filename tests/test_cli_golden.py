"""Golden CLI outputs: exit status and sha256 of stdout for a fixed command set.

Every command in every format it accepts, limits 0, 1, 12 and 40, every
--method, and the --cap-enum and BLOCKSEP_* cases. The digests were taken
from the CLI as it stood before its rewrite around one serial compute path
and one renderer table per command; a changed digest is a changed output.
Leading NAME=value words of a command set environment variables.
"""

import hashlib
import os
import shlex

import pytest

from blocksep import cli
from blocksep.cli import main
from blocksep.qseries import TruncatedSeries

# exit status, sha256 of stdout, command line
GOLDEN = """
0 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865 seq --limit 0 --format plain
0 4e0f906a9b811fe06aabd86ae4b6bdbf2dea505a12e9dff8ba8d1a356775ffc1 seq --limit 0 --format csv
0 85cb62fdde7678a3679cd1d0285483709f9732b7bf130465d2b7375eac418880 seq --limit 0 --format json
0 a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424 seq --limit 0 --format bfile
0 93e7b4b9a15a8118007582ddbe30f530ea073120c9b565b837967d8739abb8dc table --limit 0 --format plain
0 c5cf4ccce2d1d9eadcf6fcf91a8dfd2462825b860e1fc5ce71a7354b09f0f9f2 table --limit 0 --format csv
0 b0ca93684f223cd1202452af065483ccbffac2740920ed1b724ddc5fa6cef81e table --limit 0 --format json
0 5601a8faffc83b5a7a9ff4bc58a136a65dd83ae49a2c42dde250533a813cedd0 verify --limit 0 --format plain
0 87e4cf40be155a0e890f9a9d2f68aa4f7271df9cac119d7acee5f0dad68ae292 verify --limit 0 --format csv
0 61ef19db0d054cdc57b5608ad39ac14446e52f746413a6146a8797a2b797a54a verify --limit 0 --format json
0 008904fdbbc6e76b258edcfc185155c29747e2e39857685e0fdbc6c288df3f6c bivariate --limit 0 --format plain
0 cd047df2d7e3875aed79378b39cdff79acc2f599eb91801548d46d3ac85258f5 bivariate --limit 0 --format csv
0 dc115d747dd5e317b4be0561e07b1685e8ca536a2dc85d2596ef90a811402845 bivariate --limit 0 --format json
0 6201e55a7eb1aa6c55635588585638ec7cd4089619a080411ef31a73481acab5 list --limit 0 --format plain
0 74b0d2916965c2636102eff17dba2b73d6c3307d50db3f912af97595789cad2d list --limit 0 --format csv
0 9832e66d5fb20bde9aaf2d45274fb37e035b7143008d1262b6bd483e3fa39649 list --limit 0 --format json
0 3280085e9615211d5bda496aa8e8364ba785aa6e0f31e47f53a04353a8f12d50 decorations 0 --format plain
0 4f6229d2a0f3c238fb8206520b3932b60f0e27a07aa0b1371e9d4619bda2dd14 decorations 0 --format csv
0 67947de8cf756949ec031a23674e82f9c68b9164c0106c6acd92dc9a790a7811 decorations 0 --format json
0 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865 seq --limit 0 --method matrix --format plain
0 93e7b4b9a15a8118007582ddbe30f530ea073120c9b565b837967d8739abb8dc table --limit 0 --method matrix --format plain
0 c3743671c34a17cdd22470d88befe55242f52950a84a195b2e25928c6e97c4df seq --limit 0 --method matrix --format json
0 a827f41a803a51c05cffc87d7a101b45b80a4fd33726fdbf3ff0ec7664f3002d table --limit 0 --method matrix --format json
0 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865 seq --limit 0 --method recurrence --format plain
0 93e7b4b9a15a8118007582ddbe30f530ea073120c9b565b837967d8739abb8dc table --limit 0 --method recurrence --format plain
0 85cb62fdde7678a3679cd1d0285483709f9732b7bf130465d2b7375eac418880 seq --limit 0 --method recurrence --format json
0 b0ca93684f223cd1202452af065483ccbffac2740920ed1b724ddc5fa6cef81e table --limit 0 --method recurrence --format json
0 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865 seq --limit 0 --method symmetric --format plain
0 93e7b4b9a15a8118007582ddbe30f530ea073120c9b565b837967d8739abb8dc table --limit 0 --method symmetric --format plain
0 6932e6d5d1489240f390ae47170ee327003d9bbee2059a45cdf2caf17ee9a6f8 seq --limit 0 --method symmetric --format json
0 d2e7d40d5582bc3a9703ce04e13631e953fe60d216efd7e82aacf4a7f4eb29ac table --limit 0 --method symmetric --format json
0 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865 seq --limit 0 --method bruteforce --format plain
0 93e7b4b9a15a8118007582ddbe30f530ea073120c9b565b837967d8739abb8dc table --limit 0 --method bruteforce --format plain
0 1a23e187ee130028b73090db08f7ad59761db40c8c081ad9565e57af45c62be3 seq --limit 0 --method bruteforce --format json
0 f98b15d8e863a1286c80307d5dcec1668a909641620a0789f2248229c4ff8bc8 table --limit 0 --method bruteforce --format json
0 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865 seq --limit 0 --method all --format plain
0 93e7b4b9a15a8118007582ddbe30f530ea073120c9b565b837967d8739abb8dc table --limit 0 --method all --format plain
0 7d0715a815518556910201070ff34df70711bcaa27c4634e575af172128eadc8 seq --limit 0 --method all --format json
0 3ae3ef9e926a77afae14530cabe1121132dd8bc1e54252e879ec79abdae758b3 table --limit 0 --method all --format json
0 f251ddc12234e0da8d3b778bd0f7463fb477f16f47757f5617dc8b4ff4d4f14a seq --limit 1 --format plain
0 c9079de1a68c008e5b7a7cea94d088fbc4245f6c99ec7c6d2cf021a3306f72aa seq --limit 1 --format csv
0 3c9c4661a43d8efe36043de72a02b11ef9bd302d8b9406e76af3373a303383a4 seq --limit 1 --format json
0 8ba65ee1bbe8297e30cab4c5fc9b62a8caa0dbe7b89298edf1da2609beb24ae1 seq --limit 1 --format bfile
0 a0ed64ee0650d33d8e6aec392ed859cf7bfd8018b7637333da675dd35e5bdd9b table --limit 1 --format plain
0 3dd1183ef26040ad76c45047ea8097f80d85587025db20ed4b2a752b699a66d2 table --limit 1 --format csv
0 5a0e717e1eb23b3fb3cae0117235290f88b2f8d0f43538d8517e7bf3ad56e304 table --limit 1 --format json
0 b5cac2ef8dffa869e197d60c1063d5ecd0c28316cf465acb7b5a6adf226f2bfe verify --limit 1 --format plain
0 f1f1002061c1ebdc9c8da0b7aae409457732f890bd4aa960f5cafa342de58065 verify --limit 1 --format csv
0 c67f403697005f089835228083cfd40d49a62cb3cefbb9a088862026f224bb79 verify --limit 1 --format json
0 965f04adc2f001b9a448e8513f4c1879e14068cc62dcc8668d3cd273db0d5dbd bivariate --limit 1 --format plain
0 b7f560eb658a65b7060094def420c3c93cd7082552d70880a4493cec13534892 bivariate --limit 1 --format csv
0 ff2551e6ecdcc05c43768e7a45b8975cdc92e99cf2b1e51719fec31031bff46c bivariate --limit 1 --format json
0 db54240700ed0651cc70d2f6086a503d4c91377bb40ef871017fa66b12a15cad list --limit 1 --format plain
0 f91cd52e08c440ee65847b47eae7001dc472bdc6983e187dcc434dbca515eb17 list --limit 1 --format csv
0 331bb9edacddde107f91961b1f2f15850792e1193b93121b658cebc9874ff640 list --limit 1 --format json
0 65e1837c0bd7eeb4c207d2242a2e614bf70f9572685d47218f6b6a2cc8fbc3bb decorations 1 --format plain
0 3f807c02702bcdd418706ef0ad5965cdacd4e92ef2e3859ac3086db69831642e decorations 1 --format csv
0 c8dbfd0d80bc6c9bb93781bae85039e4f2d7c361275ac94c6c12a901e80967f1 decorations 1 --format json
0 f251ddc12234e0da8d3b778bd0f7463fb477f16f47757f5617dc8b4ff4d4f14a seq --limit 1 --method matrix --format plain
0 a0ed64ee0650d33d8e6aec392ed859cf7bfd8018b7637333da675dd35e5bdd9b table --limit 1 --method matrix --format plain
0 ccf5677c90cf5755163fd169341db00af943af7f4fd00854491cf5f602ee9464 seq --limit 1 --method matrix --format json
0 a059105bf69f3e1c63bd4fe31fead37ca90cecfc6befc33b170489311d37ac4e table --limit 1 --method matrix --format json
0 f251ddc12234e0da8d3b778bd0f7463fb477f16f47757f5617dc8b4ff4d4f14a seq --limit 1 --method recurrence --format plain
0 a0ed64ee0650d33d8e6aec392ed859cf7bfd8018b7637333da675dd35e5bdd9b table --limit 1 --method recurrence --format plain
0 3c9c4661a43d8efe36043de72a02b11ef9bd302d8b9406e76af3373a303383a4 seq --limit 1 --method recurrence --format json
0 5a0e717e1eb23b3fb3cae0117235290f88b2f8d0f43538d8517e7bf3ad56e304 table --limit 1 --method recurrence --format json
0 f251ddc12234e0da8d3b778bd0f7463fb477f16f47757f5617dc8b4ff4d4f14a seq --limit 1 --method symmetric --format plain
0 a0ed64ee0650d33d8e6aec392ed859cf7bfd8018b7637333da675dd35e5bdd9b table --limit 1 --method symmetric --format plain
0 064b92666dbd3d324632ba2e1fa260a472add1b101b4de894acd4c3d8e4c6801 seq --limit 1 --method symmetric --format json
0 7cc2444a792cabdebccc6e9239bf784fb4358649e3f0f07c92ebab2a35bf3972 table --limit 1 --method symmetric --format json
0 f251ddc12234e0da8d3b778bd0f7463fb477f16f47757f5617dc8b4ff4d4f14a seq --limit 1 --method bruteforce --format plain
0 a0ed64ee0650d33d8e6aec392ed859cf7bfd8018b7637333da675dd35e5bdd9b table --limit 1 --method bruteforce --format plain
0 c952d87c8fc57bbf55f052312a2a4932cf3efff1b2bfa5e0d1dc8207fe65f1e0 seq --limit 1 --method bruteforce --format json
0 635bf9a95739c2f0cc3402874edbaa2472c75b6196079d993342e544483509f0 table --limit 1 --method bruteforce --format json
0 f251ddc12234e0da8d3b778bd0f7463fb477f16f47757f5617dc8b4ff4d4f14a seq --limit 1 --method all --format plain
0 a0ed64ee0650d33d8e6aec392ed859cf7bfd8018b7637333da675dd35e5bdd9b table --limit 1 --method all --format plain
0 daef95fa733efefec3073b7a2e4f4464f3834f2f23f72c48542a8df585cf2768 seq --limit 1 --method all --format json
0 f734a5193e51f7cc55bef5807512837d17c57660e0909a44bfda65b7ac54d496 table --limit 1 --method all --format json
0 6e39dc97c5dc9914cf89fecf45c814ab06d517784c4ba9f5bfd1f68f71154b55 seq --limit 12 --format plain
0 4d4c13afdf6db2916fb39d63959c172218c1b86da2177c134d0b592af0ed6b5b seq --limit 12 --format csv
0 f8e7ae8aa8799bba847db5e9d5ff2c7b9d51afb72dd1e614f9a42cb766f71b94 seq --limit 12 --format json
0 d25abec6f11da422136f4d49e671828fe6e8714992ffc7a6d0e3eccc357da607 seq --limit 12 --format bfile
0 033cd5625002fc58e777ac65084d632d2e829451e5ef66036bb1d724896f8cae table --limit 12 --format plain
0 2fe5040da71d3385492656deca765dfcc467a8776b135f6bda135793c1aee1fb table --limit 12 --format csv
0 dcced0d82739c5bffb8e3e8dab682fb88130d64805d52dad12c73c4b0a0e69a4 table --limit 12 --format json
0 9f977c30a1677e32417b7987028522b86c726231069a86fa9bd5dde1ad82a555 verify --limit 12 --format plain
0 c9badeca630c5203918263070da48eb2bbf6054e423dbfa99c3f93c94ed0cebf verify --limit 12 --format csv
0 c0bdcbf2243c6bab504f75be3553d3424835fc44994fbe2a445cb5240b3df95c verify --limit 12 --format json
0 6ac7cf74fd50e1d3cb29fb613ff1179896aa9b1f75c6485ce3ca84306cc1b1e7 bivariate --limit 12 --format plain
0 5a5f87b4485a984ed7a07b097faa0e7c4a9571086d9fd0b7816015527d5d6826 bivariate --limit 12 --format csv
0 46f864655347556749626987e5ffe2ecda3d9c9e82d1cac41dd18418d76d6dee bivariate --limit 12 --format json
0 f98fff29112c7d69841b3ead950d4f804cf25e78d0964be9a5ac38e3e0ce9a98 list --limit 12 --format plain
0 5513454fe13ce681874258119ccd9084f9c463b39da37d61922115a385170bd8 list --limit 12 --format csv
0 59e08367b33c1961e4306efe80ca323154ed783e395537c2f842f4ccbb965b7d list --limit 12 --format json
0 1b248b99ab503f4930ce68f47e4e81f050c076857300129d1d99ef4a7f0f7112 decorations 12 --format plain
0 ae2adb4de919c76418e9a0d832cc66c0de1e7bf50d40cfea8d77372c3a442feb decorations 12 --format csv
0 2d0c8c50067d20783d798178f85e6d28f5f9e216155f48f0389f3a28b07f2fa8 decorations 12 --format json
0 6e39dc97c5dc9914cf89fecf45c814ab06d517784c4ba9f5bfd1f68f71154b55 seq --limit 12 --method matrix --format plain
0 033cd5625002fc58e777ac65084d632d2e829451e5ef66036bb1d724896f8cae table --limit 12 --method matrix --format plain
0 cad8d49a4091355d78a43c78cf6282beea419d0256d60c3d1c8a0cf4dd48727b seq --limit 12 --method matrix --format json
0 b31dd23d2f555c8a1aaa184742a8220ad7f5bbd803f27129cc87666134de7bf5 table --limit 12 --method matrix --format json
0 6e39dc97c5dc9914cf89fecf45c814ab06d517784c4ba9f5bfd1f68f71154b55 seq --limit 12 --method recurrence --format plain
0 033cd5625002fc58e777ac65084d632d2e829451e5ef66036bb1d724896f8cae table --limit 12 --method recurrence --format plain
0 f8e7ae8aa8799bba847db5e9d5ff2c7b9d51afb72dd1e614f9a42cb766f71b94 seq --limit 12 --method recurrence --format json
0 dcced0d82739c5bffb8e3e8dab682fb88130d64805d52dad12c73c4b0a0e69a4 table --limit 12 --method recurrence --format json
0 6e39dc97c5dc9914cf89fecf45c814ab06d517784c4ba9f5bfd1f68f71154b55 seq --limit 12 --method symmetric --format plain
0 033cd5625002fc58e777ac65084d632d2e829451e5ef66036bb1d724896f8cae table --limit 12 --method symmetric --format plain
0 1a226c83e56b6b813e0a5c1885f218f4033dd1f8f3fd700b80b0eb85aac2959f seq --limit 12 --method symmetric --format json
0 71ff57d730a8e3bc4e4672cf9babfd139444a77dab7d1d5617e64893b42dd3d4 table --limit 12 --method symmetric --format json
0 6e39dc97c5dc9914cf89fecf45c814ab06d517784c4ba9f5bfd1f68f71154b55 seq --limit 12 --method bruteforce --format plain
0 033cd5625002fc58e777ac65084d632d2e829451e5ef66036bb1d724896f8cae table --limit 12 --method bruteforce --format plain
0 38b21bc6f59b4903120cb73a39061f1555d6a54e0482df19d19e970a587b2bfe seq --limit 12 --method bruteforce --format json
0 d6fb8bbc0bde3358972eb997439d86b0ff5b15418c5aa091b8706e30c53b1085 table --limit 12 --method bruteforce --format json
0 6e39dc97c5dc9914cf89fecf45c814ab06d517784c4ba9f5bfd1f68f71154b55 seq --limit 12 --method all --format plain
0 033cd5625002fc58e777ac65084d632d2e829451e5ef66036bb1d724896f8cae table --limit 12 --method all --format plain
0 9f77aee4b7403e654e32d155a264180665093b9c1d610b74a252fa62a7514ef1 seq --limit 12 --method all --format json
0 5de8d556f02c1901b73335bfae9814f882164a3eebf3b787c42eaaf93385af36 table --limit 12 --method all --format json
0 697f66e7a4108154ce64356ea744983dba8c95e32d3d8fa5024fa7ba130d9eaa seq --limit 40 --format plain
0 cb80d85b38d8b76a0effc7caecee133daa4bc8276ffd63e7e445887d0b0d67df seq --limit 40 --format csv
0 9203b596322a6bbe04c512567fc321f8c273a57fe7ce803fb030d48c8df66212 seq --limit 40 --format json
0 fd646aea196e0106ca9a149136097132e5ee18c290fd6984a7a6256bdd5958ac seq --limit 40 --format bfile
0 15ad6c8a2147b251994d56312a2960c38ac34828cd8a5fcdc74056c92b908535 table --limit 40 --format plain
0 7e25e768977d4665138622f28e9359457809f9db21d52e72a41e7ad24f7f13c0 table --limit 40 --format csv
0 b6a67e2e13753feeb3729a0c011b6e7fb5710bdd353d81b2b2561ba18f35ee68 table --limit 40 --format json
0 b077d96b0c1c1aa017878b439e67e87a1086ad4895b0c6342f11356e36adc8c0 verify --limit 40 --format plain
0 ab978410cc2bcc8875d4218f839ed13f44172ce4612b33c1cabfec93786afdd4 verify --limit 40 --format csv
0 3cd1374363115c640be6755fef7870d14a194dca3b2fd642005ca8554f3b8aa0 verify --limit 40 --format json
0 7186ddd329c62d81512f1ecf8ae501b49d1ef14f184d5ff95d33392c869d2a8d bivariate --limit 40 --format plain
0 66c221535d0aabe8e0e196a85d07495b0058bbbdb7fb9f2b527458b882003d80 bivariate --limit 40 --format csv
0 ea38641a21960429a06eb923542026a95f021abc963bf85ac1c3b655a5189fc7 bivariate --limit 40 --format json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 list --limit 40 --format plain
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 list --limit 40 --format csv
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 list --limit 40 --format json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 decorations 40 --format plain
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 decorations 40 --format csv
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 decorations 40 --format json
0 697f66e7a4108154ce64356ea744983dba8c95e32d3d8fa5024fa7ba130d9eaa seq --limit 40 --method matrix --format plain
0 15ad6c8a2147b251994d56312a2960c38ac34828cd8a5fcdc74056c92b908535 table --limit 40 --method matrix --format plain
0 e43b2465ff4877fae9efc1ef8c177617758864b82c5dd417c4608cbb2544ac0a seq --limit 40 --method matrix --format json
0 cac9fd7c1fd4372fe2013ad7c25cfcdefc9614c33e6dfa06e1044e6d32cecf09 table --limit 40 --method matrix --format json
0 697f66e7a4108154ce64356ea744983dba8c95e32d3d8fa5024fa7ba130d9eaa seq --limit 40 --method recurrence --format plain
0 15ad6c8a2147b251994d56312a2960c38ac34828cd8a5fcdc74056c92b908535 table --limit 40 --method recurrence --format plain
0 9203b596322a6bbe04c512567fc321f8c273a57fe7ce803fb030d48c8df66212 seq --limit 40 --method recurrence --format json
0 b6a67e2e13753feeb3729a0c011b6e7fb5710bdd353d81b2b2561ba18f35ee68 table --limit 40 --method recurrence --format json
0 697f66e7a4108154ce64356ea744983dba8c95e32d3d8fa5024fa7ba130d9eaa seq --limit 40 --method symmetric --format plain
0 15ad6c8a2147b251994d56312a2960c38ac34828cd8a5fcdc74056c92b908535 table --limit 40 --method symmetric --format plain
0 9ad44ea5e919607af661364d384b99db9ff63980afd09ab9b515139f2f903f6f seq --limit 40 --method symmetric --format json
0 0efd2ee9825496d28522cd556b7fda9dae281cf86fd7592e03263632dd7e8c3e table --limit 40 --method symmetric --format json
0 697f66e7a4108154ce64356ea744983dba8c95e32d3d8fa5024fa7ba130d9eaa seq --limit 40 --method bruteforce --format plain
0 697f66e7a4108154ce64356ea744983dba8c95e32d3d8fa5024fa7ba130d9eaa seq --limit 40 --method all --format plain
0 15ad6c8a2147b251994d56312a2960c38ac34828cd8a5fcdc74056c92b908535 table --limit 40 --method all --format plain
0 286acb92de8188e092a1a1f6daad7da6ab462947902de2e957653717cdd666b0 seq --limit 40 --method all --format json
0 8da79134bb114a5892157506896900a51b739048b2e94db18f98b8d2eda46859 table --limit 40 --method all --format json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 table --limit 1 --format bfile
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 verify --limit 1 --format bfile
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bivariate --limit 1 --format bfile
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 list --limit 1 --format bfile
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 decorations 1 --format bfile
0 0978b411f7b5f07132d4fc3ffc7aaf3f43d36c044b96e02c210c00c3ecf7b5d3 seq
0 959d55612c534f18ee70d5492e69115a86ffb29919b5b77f51d08b0eccb064a2 table
0 b728cc49845836773d50904ed46791101d6322c0c6515d74adef6630887fe3f8 verify
0 a802417abda5787220e78e81980d9e589d0870c1f3c5710ebf583e9af0db863f bivariate
0 c26c4a2d9af4c32e607789cfc7c1f4d3af08f7ed9fe0521eb3c6c86aeed4c4bd list
0 234ad66c25e46c076a8668198cc36934f76e1ba51ee4712926c605bad9abd16f decorations 3
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 verify --limit 5 --inject-fault
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 verify --limit 12 --method bruteforce
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 seq --limit 70 --method bruteforce
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 table --limit 70 --method bruteforce
0 f374face135d898b8c277fe1087aecba1c22e845295c1941ce4cb0f814e80d20 seq --limit 26 --method bruteforce --cap-enum 26
0 13b5fc37cbb10338ea6befeda9e31aeea0c7125271be54854b1cf00c6011a31c seq --limit 12 --method all --cap-enum 5 --format json
0 00fa11478d314301a8586882f2ba0737376f46fdb0a66c1f9e92bb0ed4addfad seq --limit 30 --method all --cap-enum 30 --format json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 seq --limit 12 --cap-enum -1
0 bf8d0e74d9b33e62bc6339871a23ba66420bd9701f492229320c0abb2db8dc6f verify --limit 30 --cap-enum 2
0 fc17c86fa0fd2866f3e82b2562f744795bd8f9e42903ea59bbbd6300b0a2e4c0 verify --limit 30 --cap-enum 2 --format json
0 9f977c30a1677e32417b7987028522b86c726231069a86fa9bd5dde1ad82a555 verify --limit 12 --cap-enum 30
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 list --limit 5 --cap-enum 4
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 list --limit 21
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 decorations 3 --cap-enum 2
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 decorations 26
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 decorations -1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 seq --limit -1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 seq --bogus
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 seq --format xml
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 seq --method magic
0 d2476eeb5ee69407dad15a9eea0f9c6f88e437c432f87729ada928c2c2aefe4e BLOCKSEP_LIMIT=3 seq
0 f251ddc12234e0da8d3b778bd0f7463fb477f16f47757f5617dc8b4ff4d4f14a BLOCKSEP_LIMIT=3 seq --limit 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 BLOCKSEP_LIMIT=ten seq
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 BLOCKSEP_LIMIT=-1 seq
0 1a226c83e56b6b813e0a5c1885f218f4033dd1f8f3fd700b80b0eb85aac2959f BLOCKSEP_METHOD=symmetric seq --limit 12 --format json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 BLOCKSEP_METHOD=magic seq --limit 1
0 9cf0d80b2acffa73b1ab88c46112a84d4489f667798a94e971e957910c02d043 BLOCKSEP_FORMAT=bfile seq --limit 5
0 b8e3c029d34d329785e3b2fff7e3d15649722ccf8e4cb900aad47d9801f705e7 BLOCKSEP_FORMAT=json table --limit 5
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 BLOCKSEP_FORMAT=bfile table --limit 5
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 BLOCKSEP_FORMAT=xml seq --limit 5
0 96fb48c3b2c3576e0d4e6cccea98d01ffd949afd2902fda43a90272d312c5c1c BLOCKSEP_CAP_ENUM=2 verify --limit 12
0 f374face135d898b8c277fe1087aecba1c22e845295c1941ce4cb0f814e80d20 BLOCKSEP_CAP_ENUM=26 seq --limit 26 --method bruteforce
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 BLOCKSEP_CAP_ENUM=x seq --limit 5
0 4863bcda04fad69044383668fc96670dc351b9073c5a9c93705d20d9709c8809 BLOCKSEP_INJECT_FAULT=off verify --limit 5
0 98715b54fe00944ed6d5ce7e7cd0e47394b60c8049f997fc96f61be39c7369d6 BLOCKSEP_LIMIT=4 BLOCKSEP_METHOD=all BLOCKSEP_FORMAT=csv seq
"""

# the same, run with the matrix route one too large at n = min(1, limit): the
# detector's self-test, whose failure output is pinned here
UNDER_A_FAULT = """
1 43894e684d5044056ba27fa5f5ef20365bcbdd498fca9e1571fb2abb2ffdbf95 verify --limit 12 --format plain
1 6acb5630fad9b5a13cea1b644bdd8f76bcc5c0ffdca43dbae5e0a1fead7405eb verify --limit 12 --format csv
1 d10b3d7c72a31a5e1cb065b4a2f7f81faab8f9aa252c29afd4ad2fbde5cb6fcb verify --limit 12 --format json
1 44edfa77697c01e93ed39f9f9c5503fbc3a4e0a150bb59976aa3565730899d69 verify --limit 0
1 dd4af2da24337ff552ac30a5686467d2557ca6a120eb39718d96ebfcc1513609 verify --limit 5
1 bcc4c87d95f9f77622996f3bc486c58911a606769e24617947287b88b3c31091 verify --limit 5 --format json
"""


def cases(table):
    rows = [line.split(maxsplit=2) for line in table.strip().splitlines()]
    return pytest.mark.parametrize("code, digest, command", rows, ids=[r[2] for r in rows])


@cases(GOLDEN)
def test_golden(code, digest, command, capsys, monkeypatch):
    for name in [k for k in os.environ if k.startswith("BLOCKSEP_")]:
        monkeypatch.delenv(name)
    words = shlex.split(command)
    while "=" in words[0]:
        name, value = words.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    try:
        status = main(words)
    except SystemExit as exc:  # argparse rejects the command line
        status = exc.code
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == (int(code), digest)


@cases(UNDER_A_FAULT)
def test_golden_under_a_fault(code, digest, command, capsys, monkeypatch):
    route = cli.SERIES_METHODS["matrix"]

    def faulty(order):
        coeffs = list(route(order).coeffs)
        coeffs[min(1, order)] += 1
        return TruncatedSeries(coeffs)

    monkeypatch.setitem(cli.SERIES_METHODS, "matrix", faulty)
    test_golden(code, digest, command, capsys, monkeypatch)
