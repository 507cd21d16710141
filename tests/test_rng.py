import pytest

from znsynth.rng import run_indexed


class TestRunIndexed:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_nonpositive_workers(self, workers):
        calls = []
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_indexed(calls.append, 4, workers=workers)
        assert calls == []
