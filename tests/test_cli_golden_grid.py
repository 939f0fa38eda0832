"""Byte-for-byte pins of CLI stdout over a small grid of invocations.

Every subcommand appears in both formats, together with --by-cluster,
--masks, --method runs|oracle and all eight verify suites at small --max-m.
Each entry pins the exit code and the SHA-256 of the exact stdout bytes.
"""
import hashlib
import shlex

import pytest

from delkit.cli import main

GRID = [
    f"{cmd} --format {fmt}"
    for cmd in [
        "count --y 11000 --x 110",
        "count --y 10011 --x 101 --masks",
        "count --y 0000111100001111 --x 0011 --method runs",
        "count --y 10101 --x 101 --method oracle --masks",
        "count --y 0110 --x 111",
        "distribution --x 110 --n 5",
        "distribution --x 0110 --n 7 --by-cluster",
        "distribution --x '' --n 2",
        "sweep --m 3 --n 5",
        "sweep --m 2 --n 4 --alpha 0.5 2 3",
        "gchain --x 101010",
        "gchain --x 0010111 --deletions 2",
        "verify --suite clusters --max-m 2",
        "verify --suite initials --max-m 2",
        "verify --suite singletons --max-m 2",
        "verify --suite lemma1 --max-m 3",
        "verify --suite lemma4 --max-m 3",
        "verify --suite identityB --max-m 4",
        "verify --suite identityC --max-m 4",
        "verify --suite entropy-min --max-m 3",
        "verify --suite identityB --max-m 0",
    ]
    for fmt in ("csv", "json")
]

GOLDEN = {
    "count --y 11000 --x 110 --format csv": (0, "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
    "count --y 11000 --x 110 --format json": (0, "bbd783ebcad8b5e1cd386cdf22fd240563609c8d245e6e77d014566fa737405d"),
    "count --y 10011 --x 101 --masks --format csv": (0, "8e21e8882c0855fa5f60b5468f54b9719b3b9aa4dd9193c0cba86b02840d34d7"),
    "count --y 10011 --x 101 --masks --format json": (0, "f0a4ede30447c53be615859168b9326fb85d24029f480791ada535f78bd6513b"),
    "count --y 0000111100001111 --x 0011 --method runs --format csv": (0, "f807fe6dc767be2e7021d41540114b33b30fa7784f6de5521251f23a3eb66468"),
    "count --y 0000111100001111 --x 0011 --method runs --format json": (0, "12477830863d3d5fca036b7352da08f808bb088cd3a58b8074089c9c16971814"),
    "count --y 10101 --x 101 --method oracle --masks --format csv": (0, "917327bf29522a8fd449b22a60daa5d8abcae578b7bea0ada627784da41dcb1d"),
    "count --y 10101 --x 101 --method oracle --masks --format json": (0, "f1c3501479ce2988d8a89fbab3de62db40df679422bcc2bedcec38b235ea11d5"),
    "count --y 0110 --x 111 --format csv": (0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    "count --y 0110 --x 111 --format json": (0, "a58002ff84a83c64cbf89173f943ddccde751d69634d6138e2a00b03a6692a77"),
    "distribution --x 110 --n 5 --format csv": (0, "7862cf0b6f3cf1e6d98c319cbc899e622f9feec8823c98540d3b1739b3bbbac9"),
    "distribution --x 110 --n 5 --format json": (0, "6e7682f4b36d62a4f6c128c12a51cc68fb684943c5c8468ebacfcbcb383d18a2"),
    "distribution --x 0110 --n 7 --by-cluster --format csv": (0, "8d1b75660b6db1dd2dfc5bb92c81c8b1a31e89e3bd66e72aff763e4596d5fa7e"),
    "distribution --x 0110 --n 7 --by-cluster --format json": (0, "26668a8d26ea0bb0fd3c244c8363eca1c33443eac2cd34443c3c6aa2a86661f7"),
    "distribution --x '' --n 2 --format csv": (0, "d4ce11ea4905aa247f605239c7e37ba24352194b2e7290a6de6efa5ff5f4cefd"),
    "distribution --x '' --n 2 --format json": (0, "ef0ad2c4e5fc9e69ccaa8d80bb8334cf8479abed42f6b1b2b368283f0cf2da20"),
    "sweep --m 3 --n 5 --format csv": (0, "f7cd7a8848bb5a88c24569274e92ad90cc2f05729d85c9b5a0ad68f2f92ce98e"),
    "sweep --m 3 --n 5 --format json": (0, "c84029ba52b39d808d418244805ce1ca1cb60a78133da7ca8d2712e3f818fe7f"),
    "sweep --m 2 --n 4 --alpha 0.5 2 3 --format csv": (0, "b98b78f13a46aa70d168f3146131e4a06ea843c1d3f2be3e1a2371c3f359afe7"),
    "sweep --m 2 --n 4 --alpha 0.5 2 3 --format json": (0, "f117aefc0e080f40ac18a9301e82b8308842ceacdef1b81d7555fa90e97e77ad"),
    "gchain --x 101010 --format csv": (0, "6b8154e3223c70deb9db41ad6e7976671c7e970e226f905dce7088a4dc1bdae8"),
    "gchain --x 101010 --format json": (0, "8c424d0ebf14f745ef82c4daf964cc8f82f53a41738cc9a2597e86fb767afb9a"),
    "gchain --x 0010111 --deletions 2 --format csv": (0, "58afd96e79c5b07316caab8266d752ae590261d32546d7107f74e4a8d0b88269"),
    "gchain --x 0010111 --deletions 2 --format json": (0, "59239c7f6ab6a3bba447e48de8552f014b541ec6503bc3a55de6eac4fb19ecb1"),
    "verify --suite clusters --max-m 2 --format csv": (0, "f62cf540dd38dcd764a7a82d6b5298dff70b75dc4880588c14a44ad09d7ab8a9"),
    "verify --suite clusters --max-m 2 --format json": (0, "f1d83d08482efa969899452c23de1435d2f63cdca069ca3dee2394df8e78f0bc"),
    "verify --suite initials --max-m 2 --format csv": (0, "44739064ae2da2f2815d2780cbaed3da6d9f9e5739ae9aa35d652bc624e0a575"),
    "verify --suite initials --max-m 2 --format json": (0, "9475cbfa930d2accf4826c2762a9dec875b2a2eb5cb17f986696f6197f7ba6cb"),
    "verify --suite singletons --max-m 2 --format csv": (0, "924bcc05c5f62ed10a3f32b7efbab2ceb37ad6aeedbb639337a24702e8d464ad"),
    "verify --suite singletons --max-m 2 --format json": (0, "87cf7e058f0a01bda3e1924495cd0df716b683679d233e550a95c518316a78c2"),
    "verify --suite lemma1 --max-m 3 --format csv": (0, "06c0d6264646cc764f1d4a88c9cdd0f620c17fffa0925cea88763900db5f258f"),
    "verify --suite lemma1 --max-m 3 --format json": (0, "caefd14229b9086043edadc31800776ed283145d8ccf64b5dbe41d16a452a63d"),
    "verify --suite lemma4 --max-m 3 --format csv": (0, "5fc5c3fdd6c3f96078d2d7481867fd1a2549b9d60e27837a308ca406568059a4"),
    "verify --suite lemma4 --max-m 3 --format json": (0, "3463a99d4868776390d2ca0af85cc7c708452b45f7846ce3e19cf468404f4308"),
    "verify --suite identityB --max-m 4 --format csv": (0, "c7a63d807273e97a21c438d0c6322a875a5ad8fa0c1b4e8dd63a862e070f7b8c"),
    "verify --suite identityB --max-m 4 --format json": (0, "97f55c3b0cd4a648b49833d38d462db15814e91d22023ed0b6a0ecc897d73458"),
    "verify --suite identityC --max-m 4 --format csv": (0, "76c9d0a56804b15e3ac93c08fdef329b6e418514f0138cce6b93701abea3cd1d"),
    "verify --suite identityC --max-m 4 --format json": (0, "b4616c2d8e541e8745de91b766597d02205c746a1b8e8f88f98024a519607b8f"),
    "verify --suite entropy-min --max-m 3 --format csv": (0, "3a7ade25492cfd2a5fecb3a60961bd695094227afbb67643bc5cb2a879390f1b"),
    "verify --suite entropy-min --max-m 3 --format json": (0, "0f2f6169991d95bf7c5f2316e7819bc018899a4a98a0cceba0edd0b7d5c19792"),
    "verify --suite identityB --max-m 0 --format csv": (0, "319fc18f06202adf6bb545e08bf6ddd92dd651c8ce64f0eae7b095284bf33f9b"),
    "verify --suite identityB --max-m 0 --format json": (0, "3aee58e9e208dfbb19b3e2562dbbbddf2b9d158618e41d4236a508a076a4a613"),
}


@pytest.mark.parametrize("cmd", GRID)
def test_stdout_bytes(capsys, cmd):
    code = main(shlex.split(cmd))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[cmd]
