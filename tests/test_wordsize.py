"""Unit tests for machine-word accounting."""

import pytest

from repro.errors import InputError
from repro.wordsize import words_of


class TestWordsOf:
    def test_int_is_one_word(self):
        assert words_of(7) == 1

    def test_float_is_one_word(self):
        assert words_of(3.25) == 1

    def test_bool_is_one_word(self):
        assert words_of(True) == 1

    def test_none_is_one_word(self):
        assert words_of(None) == 1

    def test_short_string_is_one_word(self):
        assert words_of("v12") == 1

    def test_long_string_scales(self):
        assert words_of("x" * 17) == 3

    def test_empty_string_is_one_word(self):
        assert words_of("") == 1

    def test_tuple_sums_elements(self):
        assert words_of((1, 2.0, "v")) == 3

    def test_empty_tuple_is_zero(self):
        assert words_of(()) == 0

    def test_nested_containers(self):
        assert words_of([(1, 2), (3, 4)]) == 4

    def test_set_sums_elements(self):
        assert words_of({1, 2, 3}) == 3

    def test_dict_counts_keys_and_values(self):
        assert words_of({1: 2, 3: (4, 5)}) == 5

    def test_custom_word_size_method_wins(self):
        class Payload:
            def word_size(self):
                return 11

        assert words_of(Payload()) == 11

    def test_unknown_type_raises(self):
        with pytest.raises(InputError):
            words_of(object())

