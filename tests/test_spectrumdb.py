"""Grid quantization and record encoding."""
import pytest

from slapx.errors import ProtocolReject, RejectReason
from slapx.spectrumdb import (RECORD_BYTES, Channel, SpectrumDatabase,
                              SpectrumRecord)


@pytest.fixture()
def db():
    return SpectrumDatabase()


class TestQuantization:
    def test_interior_point_maps_to_cell_origin(self, db):
        assert db.cell_of(12.0, 37.0) == (0.0, 0.0)

    def test_boundary_crossing(self, db):
        assert db.cell_of(51.0, 0.0) == (50.0, 0.0)
        assert db.cell_of(50.0, 0.0) == (50.0, 0.0)
        assert db.cell_of(49.999, 0.0) == (0.0, 0.0)

    def test_out_of_area(self, db):
        with pytest.raises(ProtocolReject) as e:
            db.cell_of(10_500.0, 0.0)
        assert e.value.reason == RejectReason.OUT_OF_AREA
        with pytest.raises(ProtocolReject):
            db.cell_of(-1.0, 0.0)

    def test_lookup_deterministic_per_cell(self, db):
        a = db.lookup(10.0, 10.0)
        b = db.lookup(49.0, 49.0)   # same cell
        c = db.lookup(60.0, 10.0)   # different cell
        assert a == b
        assert a != c

    def test_lookups_keep_nothing(self, db):
        for i in range(1000):
            l_x, l_y = (i % 200) * 50.0 + 1.0, (i // 200) * 50.0 + 1.0
            assert db.lookup(l_x, l_y) == SpectrumDatabase().lookup(l_x, l_y)
        assert vars(db) == {}


class TestRecordEncoding:
    def test_exact_record_size(self, db):
        assert len(db.lookup(0.0, 0.0).encode()) == RECORD_BYTES

    def test_roundtrip(self, db):
        rec = db.lookup(120.0, 80.0)
        assert SpectrumRecord.decode(rec.encode()) == rec

    def test_channel_fields_survive(self):
        rec = SpectrumRecord(cell_x=50.0, cell_y=100.0, valid_from=5,
                             valid_until=10, max_devices=3, device_mask=0x0F,
                             channels=(Channel(3_550_000_000, 23.5),))
        back = SpectrumRecord.decode(rec.encode())
        assert back.channels[0].freq_hz == 3_550_000_000
        assert back.channels[0].max_eirp_dbm == 23.5
        assert back.device_mask == 0x0F

